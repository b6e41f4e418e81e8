// Named, reproducible random-number streams.
//
// A RngManager derives independent substreams from one master seed using a
// SplitMix64 hash of the stream name/indices.  Components pull their own
// streams, so adding a component (or reordering calls) never perturbs the
// random sequence of another — a prerequisite for apples-to-apples protocol
// comparisons on identical mobility/channel realizations.
//
// RandomStream wraps a whole mt19937_64 (~2.5 KB of state).  Components that
// keep one stream per node pair instead use the counter-based SplitMix64
// stream below, whose state is a key and a draw index (DESIGN.md §1).
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>
#include <random>
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

/// Two independent standard normals: one Box–Muller transform of outputs
/// 2n and 2n+1 of the counter-based stream `key` (see splitmix64_at).
[[nodiscard]] inline std::pair<double, double> normal_pair(std::uint64_t key,
                                                           std::uint64_t n) {
  constexpr double kUnit = 0x1.0p-53;
  // 1 - [0, 1) puts u1 in (0, 1], so the log is finite.
  const double u1 =
      1.0 - static_cast<double>(splitmix64_at(key, 2 * n) >> 11) * kUnit;
  const double u2 =
      static_cast<double>(splitmix64_at(key, 2 * n + 1) >> 11) * kUnit;
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  return {r * std::cos(theta), r * std::sin(theta)};
}

/// One random stream (wraps mt19937_64 with distribution helpers).
class RandomStream {
 public:
  explicit RandomStream(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }

  /// Exponential with the given mean (mean > 0).
  double exponential(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }

  /// Standard normal scaled to (mean, stddev); stddev == 0 returns `mean`.
  /// Scaling a unit normal by hand (rather than constructing the
  /// distribution with `stddev`, which requires stddev > 0) draws the same
  /// engine values and computes the same `z * stddev + mean` as libstdc++.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>{0.0, 1.0}(engine_) * stddev +
           mean;
  }

  /// Bernoulli trial with probability p of true.
  bool chance(double p) { return uniform() < p; }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

/// Derives named independent substreams from a master seed.
class RngManager {
 public:
  explicit RngManager(std::uint64_t master_seed) : master_(master_seed) {}

  /// Stream for a named component ("mobility", "traffic", ...).
  [[nodiscard]] RandomStream stream(std::string_view name) const {
    return RandomStream{derive(name, 0, 0)};
  }

  /// Stream for a named component and one index (e.g. per node).
  [[nodiscard]] RandomStream stream(std::string_view name,
                                    std::uint64_t index) const {
    return RandomStream{derive(name, index, 0)};
  }

  /// Stream for a named component and an index pair (e.g. per link).
  [[nodiscard]] RandomStream stream(std::string_view name, std::uint64_t a,
                                    std::uint64_t b) const {
    return RandomStream{derive(name, a, b)};
  }

  [[nodiscard]] std::uint64_t master_seed() const { return master_; }

  /// The seed `stream(name, a, b)` would use, for counter-based streams
  /// (splitmix64_at, normal_pair) that need no engine.
  [[nodiscard]] std::uint64_t derive(std::string_view name, std::uint64_t a,
                                     std::uint64_t b) const {
    std::uint64_t h = master_;
    for (const char c : name) {
      h = splitmix64(h ^ static_cast<std::uint64_t>(c));
    }
    h = splitmix64(h ^ a);
    h = splitmix64(h ^ (b + 0x51ed2701a3c5e691ULL));
    return h;
  }

 private:
  std::uint64_t master_;
};

}  // namespace rica::sim
