#include "math/simd.h"

#include <algorithm>
#include <atomic>

namespace taxorec::simd {
namespace {

std::atomic<Level> g_cap{Level::kAvx512};

}  // namespace

Level SupportedLevel() {
#if TAXOREC_HAVE_AVX2_BUILD
  static const Level supported = [] {
    if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
      return Level::kPortable;
    }
    return __builtin_cpu_supports("avx512f") ? Level::kAvx512 : Level::kAvx2;
  }();
  return supported;
#else
  return Level::kPortable;
#endif
}

Level ActiveLevel() {
  return std::min(SupportedLevel(), g_cap.load(std::memory_order_relaxed));
}

bool Avx2Enabled() { return ActiveLevel() >= Level::kAvx2; }

const char* LevelName(Level level) {
  switch (level) {
    case Level::kPortable:
      return "portable";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "unknown";
}

void CapLevelForTest(Level cap) {
  g_cap.store(cap, std::memory_order_relaxed);
}

}  // namespace taxorec::simd
