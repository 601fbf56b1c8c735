// The SIMD levels a test runs its kernels at: every level this host
// supports (math/simd.h), and a guard that caps the kernels at one of them.
#ifndef TAXOREC_TESTS_SIMD_LEVELS_H_
#define TAXOREC_TESTS_SIMD_LEVELS_H_

#include <vector>

#include "math/simd.h"

namespace taxorec {

/// The levels this host runs, highest first; kPortable is always last.
inline std::vector<simd::Level> HostSimdLevels() {
  std::vector<simd::Level> levels;
  for (const simd::Level level :
       {simd::Level::kAvx512, simd::Level::kAvx2, simd::Level::kPortable}) {
    if (level <= simd::SupportedLevel()) levels.push_back(level);
  }
  return levels;
}

/// Caps the kernels at `level` for its lifetime.
class SimdLevelCap {
 public:
  explicit SimdLevelCap(simd::Level level) { simd::CapLevelForTest(level); }
  ~SimdLevelCap() { simd::CapLevelForTest(simd::Level::kAvx512); }
  SimdLevelCap(const SimdLevelCap&) = delete;
  SimdLevelCap& operator=(const SimdLevelCap&) = delete;
};

}  // namespace taxorec

#endif  // TAXOREC_TESTS_SIMD_LEVELS_H_
