// Runtime SIMD dispatch shared by every vectorized kernel.
//
// The SIMD kernels (the SpMM row kernels in math/csr.cc, the float32
// serving kernels in serve/kernels_f32.cc, the double tier's
// one-user-per-lane distance kernels in serve/frozen_model.cc) are compiled
// in only when the build defines TAXOREC_ENABLE_AVX2 for their translation
// unit, via function-level target attributes, so the binary stays portable.
// One CPUID probe decides at run time which level they run at, and one test
// cap lowers it. Only the SpMM has an AVX-512 kernel; the other kernels run
// their AVX2 path at every level above portable. Every SIMD kernel is
// bit-identical to its portable path, so the level changes speed, never
// results.
#ifndef TAXOREC_MATH_SIMD_H_
#define TAXOREC_MATH_SIMD_H_

#if defined(TAXOREC_ENABLE_AVX2) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define TAXOREC_HAVE_AVX2_BUILD 1
#else
#define TAXOREC_HAVE_AVX2_BUILD 0
#endif

namespace taxorec::simd {

/// Instruction-set levels, lowest first.
enum class Level { kPortable, kAvx2, kAvx512 };

/// Highest level the binary carries and this CPU runs (CPUID, probed once):
/// kAvx512 needs AVX-512F besides AVX2 and FMA, kAvx2 needs AVX2 and FMA.
/// kPortable in portable-only builds.
Level SupportedLevel();

/// Level the kernels run at: SupportedLevel(), lowered by CapLevelForTest.
Level ActiveLevel();

/// True when the AVX2 kernels run: ActiveLevel() >= kAvx2.
bool Avx2Enabled();

/// "portable", "avx2" or "avx512".
const char* LevelName(Level level);

/// Test hook: the kernels run at min(SupportedLevel(), cap), so tests can
/// pin each level the host has (kAvx512 lifts the cap). Not thread-safe
/// against in-flight kernels.
void CapLevelForTest(Level cap);

}  // namespace taxorec::simd

#endif  // TAXOREC_MATH_SIMD_H_
