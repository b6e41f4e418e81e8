// Strongly typed simulation time.
//
// Simulation time is kept as integer nanoseconds so that event ordering is
// exact and runs are bit-reproducible for a given seed.  Helpers convert to
// and from floating-point seconds/milliseconds at the edges (configuration
// and reporting) only.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <optional>

namespace rica::sim {

/// A point in simulation time (or a duration), in integer nanoseconds.
class Time {
 public:
  constexpr Time() = default;
  constexpr explicit Time(std::int64_t nanos) : nanos_(nanos) {}

  [[nodiscard]] constexpr std::int64_t nanos() const { return nanos_; }
  [[nodiscard]] constexpr double seconds() const {
    return static_cast<double>(nanos_) * 1e-9;
  }
  [[nodiscard]] constexpr double millis() const {
    return static_cast<double>(nanos_) * 1e-6;
  }
  [[nodiscard]] constexpr double micros() const {
    return static_cast<double>(nanos_) * 1e-3;
  }

  static constexpr Time zero() { return Time{0}; }
  static constexpr Time max() {
    return Time{std::numeric_limits<std::int64_t>::max()};
  }

  constexpr auto operator<=>(const Time&) const = default;

  constexpr Time operator+(Time rhs) const { return Time{nanos_ + rhs.nanos_}; }
  constexpr Time operator-(Time rhs) const { return Time{nanos_ - rhs.nanos_}; }
  constexpr Time& operator+=(Time rhs) {
    nanos_ += rhs.nanos_;
    return *this;
  }
  constexpr Time& operator-=(Time rhs) {
    nanos_ -= rhs.nanos_;
    return *this;
  }
  constexpr Time operator*(std::int64_t k) const { return Time{nanos_ * k}; }

 private:
  std::int64_t nanos_ = 0;
};

/// Construct a Time from nanoseconds.
constexpr Time nanoseconds(std::int64_t n) { return Time{n}; }
/// Construct a Time from microseconds.
constexpr Time microseconds(std::int64_t us) { return Time{us * 1'000}; }
/// Construct a Time from milliseconds.
constexpr Time milliseconds(std::int64_t ms) { return Time{ms * 1'000'000}; }
/// Construct a Time from whole seconds.
constexpr Time seconds(std::int64_t s) { return Time{s * 1'000'000'000}; }
/// Construct a Time from fractional seconds (rounded to nanoseconds).  The
/// caller guarantees the result fits; untrusted input goes through
/// checked_seconds_f.
constexpr Time seconds_f(double s) {
  return Time{static_cast<std::int64_t>(s * 1e9 + (s >= 0 ? 0.5 : -0.5))};
}

/// seconds_f for untrusted input: nullopt when `s` is not finite or its
/// rounded nanosecond count falls outside int64 (|s| reaches 2^63 ns,
/// ~9.22e9 s), where the cast would be undefined.
constexpr std::optional<Time> checked_seconds_f(double s) {
  const double ns = s * 1e9 + (s >= 0 ? 0.5 : -0.5);
  // The negated test also rejects NaN, which fails every comparison.
  if (!(ns >= -0x1p63 && ns < 0x1p63)) return std::nullopt;
  return Time{static_cast<std::int64_t>(ns)};
}

}  // namespace rica::sim
