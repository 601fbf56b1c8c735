// Deterministic, seedable pseudo-random number generation.
//
// xoshiro256++ seeded through splitmix64: fast, high-quality, and
// reproducible across platforms (unlike std::default_random_engine). All
// experiment code takes an explicit Rng so every table in the paper harness
// is replayable from a seed.
#ifndef TAXOREC_MATH_RNG_H_
#define TAXOREC_MATH_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace taxorec {

/// xoshiro256++ generator with convenience samplers.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t Uniform(uint64_t n);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double UniformReal(double lo, double hi);

  /// Standard normal via Box–Muller.
  double NextGaussian();

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Samples an index from unnormalized nonnegative weights.
  /// Requires a positive total weight.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher–Yates shuffle of [first, last).
  template <typename It>
  void Shuffle(It first, It last) {
    const auto n = last - first;
    for (auto i = n - 1; i > 0; --i) {
      const auto j = static_cast<decltype(i)>(Uniform(static_cast<uint64_t>(i) + 1));
      std::swap(first[i], first[j]);
    }
  }

  /// Counter-based stream derivation: a child generator whose state is a
  /// pure function of (seed, stream, counter), independent of any draw
  /// history. Used for per-sample RNG streams in parallel training loops —
  /// e.g. Derive(seed, epoch, sample_index) yields the same triple at any
  /// thread count. Nearby counters are decorrelated by chained splitmix64
  /// finalizers.
  static Rng Derive(uint64_t seed, uint64_t stream, uint64_t counter);

 private:
  uint64_t s_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace taxorec

#endif  // TAXOREC_MATH_RNG_H_
