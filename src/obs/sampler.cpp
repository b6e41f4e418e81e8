#include "obs/sampler.hpp"

#include <cinttypes>
#include <stdexcept>

namespace rica::obs {

namespace {

/// Integer-arithmetic "seconds with 6 decimals" from nanoseconds, so the
/// CSV timestamps are byte-stable (no double rounding in the hot format).
struct SecondsStr {
  char buf[40];
  explicit SecondsStr(sim::Time t) {
    const std::int64_t ns = t.nanos();
    std::snprintf(buf, sizeof(buf), "%" PRId64 ".%06" PRId64,
                  ns / 1'000'000'000, (ns % 1'000'000'000) / 1000);
  }
};

}  // namespace

Sampler::Sampler(const Registry& registry, const std::string& series_path,
                 PerfettoWriter* perfetto, Tracer* tracer)
    : registry_(registry), perfetto_(perfetto), tracer_(tracer) {
  if (series_path.empty()) return;
  file_ = std::fopen(series_path.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("cannot open series output file: " +
                             series_path);
  }
  std::fputs("t_s,stat,value\n", file_);
}

Sampler::~Sampler() {
  if (file_ != nullptr) std::fclose(file_);
}

void Sampler::start(sim::Simulator& sim, sim::Time dt, sim::Time end) {
  if (dt <= sim::Time::zero()) return;
  dt_ = dt;
  end_ = end;
  arm(sim);
}

void Sampler::arm(sim::Simulator& sim) {
  const sim::Time next = sim.now() + dt_;
  if (next > end_) return;
  timer_.arm_at(sim, next, [this, &sim] {
    sample(sim);
    arm(sim);
  });
}

void Sampler::sample(const sim::Simulator& sim) {
  const sim::Time now = sim.now();
  if (tracer_ != nullptr && tracer_->kernel_on()) {
    tracer_->kernel(KernelTrace{
        now, sim.events_executed(),
        static_cast<std::uint64_t>(sim.pending_events())});
  }
  if (file_ == nullptr && perfetto_ == nullptr) return;
  const SecondsStr t(now);
  for (const auto& s : registry_.snapshot()) {
    if (file_ != nullptr) {
      std::fprintf(file_, "%s,%s,%.15g\n", t.buf, s.name.c_str(), s.value);
    }
    if (perfetto_ != nullptr) {
      perfetto_->counter(PerfettoWriter::kKernelPid, s.name, now, s.value);
    }
  }
}

}  // namespace rica::obs
