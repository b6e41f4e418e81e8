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

SeriesSampler::SeriesSampler(const std::string& path,
                             const Registry& registry)
    : registry_(registry) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("cannot open series output file: " + path);
  }
  std::fputs("t_s,stat,value\n", file_);
}

SeriesSampler::~SeriesSampler() {
  if (file_ != nullptr) std::fclose(file_);
}

void SeriesSampler::flush() {
  if (file_ != nullptr) std::fflush(file_);
}

void SeriesSampler::start(sim::Simulator& sim, sim::Time dt, sim::Time end) {
  if (dt <= sim::Time::zero()) return;
  dt_ = dt;
  end_ = end;
  arm(sim);
}

void SeriesSampler::arm(sim::Simulator& sim) {
  const sim::Time next = sim.now() + dt_;
  if (next > end_) return;
  timer_.arm_at(sim, next, [this, &sim] {
    sample(sim.now());
    arm(sim);
  });
}

void SeriesSampler::sample(sim::Time now) {
  const SecondsStr t(now);
  for (const auto& s : registry_.snapshot()) {
    std::fprintf(file_, "%s,%s,%.15g\n", t.buf, s.name.c_str(), s.value);
  }
}

void KernelProbe::on_kernel_window(sim::Time now,
                                   std::uint64_t events_executed,
                                   std::size_t pending) {
  if (tracer_ != nullptr && tracer_->kernel_on()) {
    tracer_->kernel(KernelTrace{now, events_executed,
                                static_cast<std::uint64_t>(pending)});
  }
  if (perfetto_ != nullptr) {
    for (const auto& s : registry_.snapshot()) {
      perfetto_->counter(PerfettoWriter::kKernelPid, s.name, now, s.value);
    }
  }
}

}  // namespace rica::obs
