// Runtime SIMD dispatch shared by every vectorized kernel.
//
// The AVX2 kernels (the SpMM row kernel in math/csr.cc, the float32 serving
// kernels in serve/kernels_f32.cc, the double tier's one-user-per-lane
// distance kernels in serve/frozen_model.cc) are compiled in only when the
// build defines TAXOREC_ENABLE_AVX2 for their translation unit, via
// function-level target attributes, so the binary stays portable. One CPUID
// probe decides at run time whether they run, and one test switch forces
// the portable paths. Every AVX2 kernel is bit-identical to its portable
// path, so the switch changes speed, never results.
#ifndef TAXOREC_MATH_SIMD_H_
#define TAXOREC_MATH_SIMD_H_

#if defined(TAXOREC_ENABLE_AVX2) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define TAXOREC_HAVE_AVX2_BUILD 1
#else
#define TAXOREC_HAVE_AVX2_BUILD 0
#endif

namespace taxorec::simd {

/// True when the binary carries the AVX2 kernels AND this CPU supports
/// AVX2+FMA (runtime CPUID). False in portable-only builds.
bool Avx2Supported();

/// True when the AVX2 kernels run: supported and not forced off.
bool Avx2Enabled();

/// Name of the active backend: "avx2" or "portable".
const char* ActiveBackend();

/// Test hook: forces the portable kernels even on AVX2 hardware (used to
/// assert backend bit-identity). Not thread-safe against in-flight kernels.
void ForcePortableForTest(bool force);

}  // namespace taxorec::simd

#endif  // TAXOREC_MATH_SIMD_H_
