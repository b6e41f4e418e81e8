#include "obs/perfetto.hpp"

#include <cinttypes>
#include <stdexcept>

namespace rica::obs {

namespace {

/// Formats integer nanoseconds as microseconds with exactly three decimal
/// places, by integer arithmetic: 1234567 ns -> "1234.567".  trace_event
/// timestamps are in microseconds; keeping sub-µs precision preserves the
/// kernel's nanosecond event spacing.
struct Micros {
  char buf[32];
  explicit Micros(sim::Time t) {
    const std::int64_t ns = t.nanos();
    std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, ns / 1000,
                  ns % 1000);
  }
};

constexpr std::uint64_t thread_key(std::uint32_t pid, std::uint32_t tid) {
  return (static_cast<std::uint64_t>(pid) << 32) | tid;
}

}  // namespace

PerfettoWriter::PerfettoWriter(const std::string& path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("cannot open perfetto output file: " + path);
  }
  std::fputs("{\"traceEvents\":[", file_);
  const struct {
    std::uint32_t pid;
    const char* name;
  } processes[] = {{kKernelPid, "kernel"},
                   {kControlPid, "control-channel"},
                   {kDataPid, "data-plane"}};
  for (const auto& p : processes) {
    comma();
    std::fprintf(file_,
                 "{\"ph\":\"M\",\"pid\":%" PRIu32
                 ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
                 "\"%s\"}}",
                 p.pid, p.name);
  }
}

PerfettoWriter::~PerfettoWriter() {
  close();
  if (file_ != nullptr) std::fclose(file_);
}

void PerfettoWriter::comma() {
  if (first_) {
    first_ = false;
  } else {
    std::fputc(',', file_);
  }
  std::fputc('\n', file_);
}

void PerfettoWriter::name_thread(std::uint32_t pid, std::uint32_t tid,
                                 std::string_view name) {
  auto& seen = named_threads_[thread_key(pid, tid)];
  if (seen) return;
  seen = true;
  comma();
  std::fprintf(file_,
               "{\"ph\":\"M\",\"pid\":%" PRIu32 ",\"tid\":%" PRIu32
               ",\"name\":\"thread_name\",\"args\":{\"name\":\"%.*s\"}}",
               pid, tid, static_cast<int>(name.size()), name.data());
}

std::uint32_t PerfettoWriter::track(std::uint32_t pid,
                                    const std::string& label) {
  const std::string key = std::to_string(pid) + "/" + label;
  const auto it = tracks_.find(key);
  if (it != tracks_.end()) return it->second;
  const std::uint32_t tid = ++next_tid_[pid];
  tracks_.emplace(key, tid);
  name_thread(pid, tid, label);
  return tid;
}

void PerfettoWriter::slice(std::uint32_t pid, std::uint32_t tid,
                           std::string_view category, std::string_view name,
                           sim::Time start, sim::Time dur) {
  if (closed_) return;
  if (!named_threads_.count(thread_key(pid, tid))) {
    char label[32];
    std::snprintf(label, sizeof(label), "%s %" PRIu32,
                  pid == kControlPid ? "node" : "track", tid);
    name_thread(pid, tid, label);
  }
  comma();
  std::fprintf(file_,
               "{\"ph\":\"X\",\"pid\":%" PRIu32 ",\"tid\":%" PRIu32
               ",\"cat\":\"%.*s\",\"name\":\"%.*s\",\"ts\":%s,\"dur\":%s}",
               pid, tid, static_cast<int>(category.size()), category.data(),
               static_cast<int>(name.size()), name.data(), Micros(start).buf,
               Micros(dur).buf);
}

void PerfettoWriter::counter(std::uint32_t pid, std::string_view name,
                             sim::Time at, double value) {
  if (closed_) return;
  comma();
  std::fprintf(file_,
               "{\"ph\":\"C\",\"pid\":%" PRIu32
               ",\"tid\":0,\"name\":\"%.*s\",\"ts\":%s,\"args\":{\"value\":"
               "%.15g}}",
               pid, static_cast<int>(name.size()), name.data(),
               Micros(at).buf, value);
}

void PerfettoWriter::close() {
  if (closed_ || file_ == nullptr) return;
  closed_ = true;
  std::fputs("\n]}\n", file_);
  std::fflush(file_);
}

}  // namespace rica::obs
