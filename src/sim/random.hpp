// Named, reproducible random-number streams.
//
// A RngManager derives independent substreams from one master seed using a
// SplitMix64 hash of the stream name/indices.  Components pull their own
// streams, so adding a component (or reordering calls) never perturbs the
// random sequence of another — a prerequisite for apples-to-apples protocol
// comparisons on identical mobility/channel realizations.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>

namespace rica::sim {

/// SplitMix64 finalizer; good avalanche, used for seed derivation.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
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

 private:
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

  std::uint64_t master_;
};

}  // namespace rica::sim
