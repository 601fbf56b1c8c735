#include "math/rng.h"

#include <cmath>

#include "common/check.h"

namespace taxorec {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t n) {
  TAXOREC_DCHECK(n > 0);
  // Rejection sampling to remove modulo bias.
  const uint64_t threshold = -n % n;
  for (;;) {
    const uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformReal(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u = 0.0;
  while (u <= 1e-300) u = NextDouble();
  const double v = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u));
  const double theta = 2.0 * M_PI * v;
  spare_gaussian_ = r * std::sin(theta);
  has_spare_gaussian_ = true;
  return r * std::cos(theta);
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    TAXOREC_DCHECK(w >= 0.0);
    total += w;
  }
  TAXOREC_CHECK_MSG(total > 0.0, "Categorical requires positive total weight");
  double target = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // Floating-point remainder lands on last bin.
}

Rng Rng::Derive(uint64_t seed, uint64_t stream, uint64_t counter) {
  uint64_t s = seed;
  uint64_t h = SplitMix64(&s);
  s = h ^ stream;
  h = SplitMix64(&s);
  s = h ^ counter;
  h = SplitMix64(&s);
  return Rng(h);
}

}  // namespace taxorec
