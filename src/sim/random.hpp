// Named, reproducible random-number streams.
//
// A RngManager derives independent substreams from one master seed using a
// SplitMix64 hash of the stream name/indices.  Components pull their own
// streams, so adding a component (or reordering calls) never perturbs the
// random sequence of another — a prerequisite for apples-to-apples protocol
// comparisons on identical mobility/channel realizations.
//
// Every stream is counter-based: a key and a draw count over the SplitMix64
// sequence, 16 bytes, and every distribution is written out below, so a
// draw depends on no standard-library algorithm (DESIGN.md §1).  Only the
// libm functions the distributions call (log, log1p, sqrt, sin, cos) are
// outside this file.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>
#include <string_view>
#include <utility>

namespace rica::sim {

/// SplitMix64's state increment (the golden-ratio "gamma").
inline constexpr std::uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

/// SplitMix64 finalizer; good avalanche, used for seed derivation.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += kSplitMixGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Output `n` of the SplitMix64 generator seeded with `key`: a
/// counter-based stream, so any output is a pure function of (key, n) and
/// the stream's whole state is the two integers.
[[nodiscard]] constexpr std::uint64_t splitmix64_at(std::uint64_t key,
                                                    std::uint64_t n) {
  return splitmix64(key + n * kSplitMixGamma);
}

/// Two independent standard normals from two raw outputs: one Box–Muller
/// transform of their top 53 bits.
[[nodiscard]] inline std::pair<double, double> box_muller(std::uint64_t a,
                                                          std::uint64_t b) {
  constexpr double kUnit = 0x1.0p-53;
  // 1 - [0, 1) puts u1 in (0, 1], so the log is finite.
  const double u1 = 1.0 - static_cast<double>(a >> 11) * kUnit;
  const double u2 = static_cast<double>(b >> 11) * kUnit;
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  return {r * std::cos(theta), r * std::sin(theta)};
}

/// One random stream: output `n` is splitmix64_at(key, n), and each method
/// below consumes the outputs it names.
class RandomStream {
 public:
  explicit RandomStream(std::uint64_t key) : key_(key) {}

  /// The next raw 64-bit output.
  std::uint64_t next() { return splitmix64_at(key_, n_++); }

  /// Outputs consumed so far (0 for a fresh stream).
  [[nodiscard]] std::uint64_t count() const { return n_; }

  /// Uniform double in [0, 1): the top 53 bits of one output.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive, unbiased: Lemire's
  /// multiply-shift, which rejects an output only when the low word of its
  /// 128-bit product with the span falls below 2^64 mod span.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    __extension__ using U128 = unsigned __int128;
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next());  // full range
    U128 m = static_cast<U128>(next()) * span;
    if (static_cast<std::uint64_t>(m) < span) {
      const std::uint64_t threshold = -span % span;
      while (static_cast<std::uint64_t>(m) < threshold) {
        m = static_cast<U128>(next()) * span;
      }
    }
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                     static_cast<std::uint64_t>(m >> 64));
  }

  /// Exponential with the given mean (mean > 0), by inversion; one draw is
  /// at most 53 ln 2 (~36.7) times the mean.
  double exponential(double mean) { return -mean * std::log1p(-uniform()); }

  /// Normal with the given mean and stddev (stddev == 0 returns `mean`):
  /// the first normal of one Box–Muller pair.
  double normal(double mean, double stddev) {
    return normal_pair().first * stddev + mean;
  }

  /// Two independent standard normals from the next two outputs.
  std::pair<double, double> normal_pair() {
    // Two statements, because argument evaluation order is unspecified.
    const std::uint64_t a = next();
    const std::uint64_t b = next();
    return box_muller(a, b);
  }

  /// Bernoulli trial with probability p of true.
  bool chance(double p) { return uniform() < p; }

 private:
  std::uint64_t key_;
  std::uint64_t n_ = 0;
};
static_assert(sizeof(RandomStream) == 16, "a stream is a key and a count");

/// Derives named independent substreams from a master seed.
class RngManager {
 public:
  explicit RngManager(std::uint64_t master_seed) : master_(master_seed) {}

  /// Stream for a named component ("mobility", "traffic", ...).
  [[nodiscard]] RandomStream stream(std::string_view name) const {
    return stream_at(name_key(name), 0, 0);
  }

  /// Stream for a named component and one index (e.g. per node).
  [[nodiscard]] RandomStream stream(std::string_view name,
                                    std::uint64_t index) const {
    return stream_at(name_key(name), index, 0);
  }

  /// Stream for a named component and an index pair (e.g. per link).
  [[nodiscard]] RandomStream stream(std::string_view name, std::uint64_t a,
                                    std::uint64_t b) const {
    return stream_at(name_key(name), a, b);
  }

  /// The hash of `name` that every stream (name, a, b) starts from.  A
  /// component that derives many index streams hashes its name once here
  /// and calls stream_at.
  [[nodiscard]] std::uint64_t name_key(std::string_view name) const {
    std::uint64_t h = master_;
    for (const char c : name) {
      h = splitmix64(h ^ static_cast<std::uint64_t>(c));
    }
    return h;
  }

  /// Stream (name, a, b), given name_key(name).
  [[nodiscard]] static RandomStream stream_at(std::uint64_t name_key,
                                              std::uint64_t a,
                                              std::uint64_t b) {
    const std::uint64_t h = splitmix64(name_key ^ a);
    return RandomStream{splitmix64(h ^ (b + 0x51ed2701a3c5e691ULL))};
  }

  [[nodiscard]] std::uint64_t master_seed() const { return master_; }

 private:
  std::uint64_t master_;
};

}  // namespace rica::sim
