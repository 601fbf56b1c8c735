// The AVX2 form of lorentz::SqDistanceLowerBound, for translation units
// built with TAXOREC_ENABLE_AVX2 (math/simd.h): four betas at a time, each
// lane the scalar form's operations in the same order, so the same bits.
// Multiply and add stay separate instructions: the "avx2" target does not
// enable FMA, so the compiler cannot contract them.
#ifndef TAXOREC_HYPERBOLIC_LORENTZ_AVX2_H_
#define TAXOREC_HYPERBOLIC_LORENTZ_AVX2_H_

#include "hyperbolic/lorentz.h"
#include "math/simd.h"

#if TAXOREC_HAVE_AVX2_BUILD
#include <immintrin.h>

namespace taxorec::lorentz {

/// SqDistanceLowerBound of each lane of `beta`, from the table `t`. The
/// table's value and slope come in by two gathers.
__attribute__((target("avx2"))) inline __m256d SqDistanceLowerBoundAvx2(
    const SqDistanceChords& t, __m256d beta) {
  using C = SqDistanceChords;
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d top = _mm256_set1_pd(C::kTop);
  // max_pd and min_pd return their second operand when either is NaN: b
  // keeps a NaN beta, the index copy drops it.
  const __m256d b = _mm256_min_pd(top, _mm256_max_pd(one, beta));
  const __m256i bits =
      _mm256_castpd_si256(_mm256_min_pd(_mm256_max_pd(beta, one), top));
  const __m256i k = _mm256_sub_epi64(
      _mm256_srli_epi64(bits, 48),
      _mm256_set1_epi64x(static_cast<long long>(C::kIndexBase)));
  const __m256d grid = _mm256_castsi256_pd(_mm256_and_si256(
      bits, _mm256_set1_epi64x(static_cast<long long>(C::kGridMask))));
  const __m256d value = _mm256_i64gather_pd(t.value, k, 8);
  const __m256d slope = _mm256_i64gather_pd(t.slope, k, 8);
  return _mm256_add_pd(value, _mm256_mul_pd(slope, _mm256_sub_pd(b, grid)));
}

}  // namespace taxorec::lorentz

#endif  // TAXOREC_HAVE_AVX2_BUILD

#endif  // TAXOREC_HYPERBOLIC_LORENTZ_AVX2_H_
