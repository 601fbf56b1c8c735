#include "math/simd.h"

#include <atomic>

namespace taxorec::simd {
namespace {

std::atomic<bool> g_force_portable{false};

}  // namespace

bool Avx2Supported() {
#if TAXOREC_HAVE_AVX2_BUILD
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported;
#else
  return false;
#endif
}

bool Avx2Enabled() {
  return Avx2Supported() && !g_force_portable.load(std::memory_order_relaxed);
}

const char* ActiveBackend() { return Avx2Enabled() ? "avx2" : "portable"; }

void ForcePortableForTest(bool force) {
  g_force_portable.store(force, std::memory_order_relaxed);
}

}  // namespace taxorec::simd
