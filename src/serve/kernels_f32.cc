#include "serve/kernels_f32.h"

#include <cmath>

#include "common/check.h"
#include "math/simd.h"

#if TAXOREC_HAVE_AVX2_BUILD
#include <immintrin.h>
#endif

namespace taxorec::f32 {
namespace {

// ---------------------------------------------------------------------------
// Shared scalar per-row transforms.
//
// noinline is load-bearing: these are called from both the portable and the
// AVX2-target translation-unit contexts. Inlined into an AVX2-target
// function, gcc could contract `dot - 2*x0y0` into an FMA there but not in
// the portable caller, splitting the backends bitwise. One shared out-of-
// line body makes the scalar math identical by construction.
// ---------------------------------------------------------------------------

/// Lorentz squared distance from the full float dot product and the
/// time-component product: inner_L = dot - 2*(x0*y0), beta = -inner_L
/// clamped to >= 1 (NaN passes through, matching lorentz::SafeBeta),
/// d^2 = acoshf(beta)^2.
__attribute__((noinline)) float LorentzSqFromDot(float dot, float x0y0) {
  const float inner = dot - 2.0f * x0y0;
  float beta = -inner;
  if (beta < 1.0f) beta = 1.0f;
  const float d = std::acosh(beta);
  return d * d;
}

/// Tag-channel blend g = fmaf(alpha, m_tg, m_ir) (canonical combine).
__attribute__((noinline)) float CombineChannels(float alpha, float m_tg,
                                                float m_ir) {
  return std::fmaf(alpha, m_tg, m_ir);
}

// ---------------------------------------------------------------------------
// Portable backend: the canonical 16-lane fmaf algorithm, written out.
// ---------------------------------------------------------------------------

/// Canonical lane reduction: fold the two 8-lane halves, then the fixed
/// tree ((m0+m4)+(m2+m6)) + ((m1+m5)+(m3+m7)) — exactly the AVX2
/// extract/movehl/shuffle horizontal add.
float ReduceLanes(const float* l) {
  float m[8];
  for (size_t j = 0; j < 8; ++j) m[j] = l[j] + l[j + 8];
  const float t0 = m[0] + m[4];
  const float t1 = m[1] + m[5];
  const float t2 = m[2] + m[6];
  const float t3 = m[3] + m[7];
  return (t0 + t2) + (t1 + t3);
}

float DotPortable(const float* x, const float* y, size_t n) {
  float l[kLanes] = {};
  for (size_t i = 0; i < n; i += kLanes) {
    for (size_t j = 0; j < kLanes; ++j) {
      l[j] = std::fmaf(x[i + j], y[i + j], l[j]);
    }
  }
  return ReduceLanes(l);
}

float SqDistPortable(const float* x, const float* y, size_t n) {
  float l[kLanes] = {};
  for (size_t i = 0; i < n; i += kLanes) {
    for (size_t j = 0; j < kLanes; ++j) {
      const float d = x[i + j] - y[i + j];
      l[j] = std::fmaf(d, d, l[j]);
    }
  }
  return ReduceLanes(l);
}

void DotRowsPortable(const float* u, const float* items, size_t stride,
                     size_t count, double* dst) {
  for (size_t i = 0; i < count; ++i) {
    dst[i] = static_cast<double>(DotPortable(u, items + i * stride, stride));
  }
}

void SqDistRowsPortable(const float* u, const float* items, size_t stride,
                        size_t count, double* dst, float sign) {
  for (size_t i = 0; i < count; ++i) {
    dst[i] = static_cast<double>(
        sign * SqDistPortable(u, items + i * stride, stride));
  }
}

void LorentzRowsPortable(const float* u, const float* items, size_t stride,
                         size_t count, double* dst, float sign) {
  const float u0 = u[0];
  for (size_t i = 0; i < count; ++i) {
    const float* v = items + i * stride;
    const float m = LorentzSqFromDot(DotPortable(u, v, stride), u0 * v[0]);
    dst[i] = static_cast<double>(sign * m);
  }
}

void SqDistCombinePortable(const float* u_tg, const float* items_tg,
                           size_t stride, size_t count, double* dst,
                           float alpha) {
  for (size_t i = 0; i < count; ++i) {
    const float m = SqDistPortable(u_tg, items_tg + i * stride, stride);
    dst[i] = -static_cast<double>(
        CombineChannels(alpha, m, static_cast<float>(dst[i])));
  }
}

void LorentzCombinePortable(const float* u_tg, const float* items_tg,
                            size_t stride, size_t count, double* dst,
                            float alpha) {
  const float u0 = u_tg[0];
  for (size_t i = 0; i < count; ++i) {
    const float* v = items_tg + i * stride;
    const float m = LorentzSqFromDot(DotPortable(u_tg, v, stride), u0 * v[0]);
    dst[i] = -static_cast<double>(
        CombineChannels(alpha, m, static_cast<float>(dst[i])));
  }
}

// ---------------------------------------------------------------------------
// AVX2/FMA backend: identical lane algorithm with 256-bit vectors. Only
// compiled when the build carries TAXOREC_ENABLE_AVX2; selected at runtime
// by CPUID, so the binary stays portable.
// ---------------------------------------------------------------------------

#if TAXOREC_HAVE_AVX2_BUILD

__attribute__((target("avx2,fma"))) inline float ReduceAvx2(__m256 acc0,
                                                            __m256 acc1) {
  const __m256 m = _mm256_add_ps(acc0, acc1);
  const __m128 t =
      _mm_add_ps(_mm256_castps256_ps128(m), _mm256_extractf128_ps(m, 1));
  const __m128 u = _mm_add_ps(t, _mm_movehl_ps(t, t));
  return _mm_cvtss_f32(_mm_add_ss(u, _mm_shuffle_ps(u, u, 1)));
}

__attribute__((target("avx2,fma"))) inline float DotAvx2(const float* x,
                                                         const float* y,
                                                         size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  for (size_t i = 0; i < n; i += kLanes) {
    acc0 = _mm256_fmadd_ps(_mm256_load_ps(x + i), _mm256_load_ps(y + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_load_ps(x + i + 8),
                           _mm256_load_ps(y + i + 8), acc1);
  }
  return ReduceAvx2(acc0, acc1);
}

__attribute__((target("avx2,fma"))) inline float SqDistAvx2(const float* x,
                                                            const float* y,
                                                            size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  for (size_t i = 0; i < n; i += kLanes) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_load_ps(x + i), _mm256_load_ps(y + i));
    const __m256 d1 =
        _mm256_sub_ps(_mm256_load_ps(x + i + 8), _mm256_load_ps(y + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  return ReduceAvx2(acc0, acc1);
}

__attribute__((target("avx2,fma"))) void DotRowsAvx2(const float* u,
                                                     const float* items,
                                                     size_t stride,
                                                     size_t count,
                                                     double* dst) {
  for (size_t i = 0; i < count; ++i) {
    dst[i] = static_cast<double>(DotAvx2(u, items + i * stride, stride));
  }
}

__attribute__((target("avx2,fma"))) void SqDistRowsAvx2(
    const float* u, const float* items, size_t stride, size_t count,
    double* dst, float sign) {
  for (size_t i = 0; i < count; ++i) {
    dst[i] =
        static_cast<double>(sign * SqDistAvx2(u, items + i * stride, stride));
  }
}

__attribute__((target("avx2,fma"))) void LorentzRowsAvx2(
    const float* u, const float* items, size_t stride, size_t count,
    double* dst, float sign) {
  const float u0 = u[0];
  for (size_t i = 0; i < count; ++i) {
    const float* v = items + i * stride;
    const float m = LorentzSqFromDot(DotAvx2(u, v, stride), u0 * v[0]);
    dst[i] = static_cast<double>(sign * m);
  }
}

__attribute__((target("avx2,fma"))) void SqDistCombineAvx2(
    const float* u_tg, const float* items_tg, size_t stride, size_t count,
    double* dst, float alpha) {
  for (size_t i = 0; i < count; ++i) {
    const float m = SqDistAvx2(u_tg, items_tg + i * stride, stride);
    dst[i] = -static_cast<double>(
        CombineChannels(alpha, m, static_cast<float>(dst[i])));
  }
}

__attribute__((target("avx2,fma"))) void LorentzCombineAvx2(
    const float* u_tg, const float* items_tg, size_t stride, size_t count,
    double* dst, float alpha) {
  const float u0 = u_tg[0];
  for (size_t i = 0; i < count; ++i) {
    const float* v = items_tg + i * stride;
    const float m = LorentzSqFromDot(DotAvx2(u_tg, v, stride), u0 * v[0]);
    dst[i] = -static_cast<double>(
        CombineChannels(alpha, m, static_cast<float>(dst[i])));
  }
}

#endif  // TAXOREC_HAVE_AVX2_BUILD

// ---------------------------------------------------------------------------
// Backend dispatch.
// ---------------------------------------------------------------------------

struct Backend {
  const char* name;
  void (*dot_rows)(const float*, const float*, size_t, size_t, double*);
  void (*sqdist_rows)(const float*, const float*, size_t, size_t, double*,
                      float);
  void (*lorentz_rows)(const float*, const float*, size_t, size_t, double*,
                       float);
  void (*sqdist_combine)(const float*, const float*, size_t, size_t, double*,
                         float);
  void (*lorentz_combine)(const float*, const float*, size_t, size_t, double*,
                          float);
};

constexpr Backend kPortableBackend = {
    "portable", DotRowsPortable, SqDistRowsPortable, LorentzRowsPortable,
    SqDistCombinePortable, LorentzCombinePortable,
};

#if TAXOREC_HAVE_AVX2_BUILD
constexpr Backend kAvx2Backend = {
    "avx2", DotRowsAvx2, SqDistRowsAvx2, LorentzRowsAvx2, SqDistCombineAvx2,
    LorentzCombineAvx2,
};
#endif

const Backend& ActiveBackendImpl() {
#if TAXOREC_HAVE_AVX2_BUILD
  if (simd::Avx2Enabled()) return kAvx2Backend;
#endif
  return kPortableBackend;
}

/// Scores `count` consecutive item slots from `first` for `user` on backend
/// `b`. With a tag term (alpha_u > 0) the item-channel rows are written at
/// sign +1 and the combine pass negates the blend; otherwise the rows are
/// written at sign -1.
void ScoreSlots(const CompactSnapshot& s, const Backend& b, uint32_t user,
                size_t first, size_t count, double* dst) {
  const float* u = s.users.row(user);
  const float* items = s.items.row(first);
  const size_t stride = s.items.stride;
  const float a = s.has_tag_channel() ? s.alpha[user] : 0.0f;
  const float sign = a > 0.0f ? 1.0f : -1.0f;
  switch (s.kernel) {
    case ScoreKernel::kDot:
      b.dot_rows(u, items, stride, count, dst);
      return;
    case ScoreKernel::kNegSqDist:
      b.sqdist_rows(u, items, stride, count, dst, sign);
      if (a > 0.0f) {
        b.sqdist_combine(s.users_tg.row(user), s.items_tg.row(first),
                         s.items_tg.stride, count, dst, a);
      }
      return;
    case ScoreKernel::kNegLorentzSqDist:
      b.lorentz_rows(u, items, stride, count, dst, sign);
      if (a > 0.0f) {
        b.lorentz_combine(s.users_tg.row(user), s.items_tg.row(first),
                          s.items_tg.stride, count, dst, a);
      }
      return;
    case ScoreKernel::kVirtual:
      break;
  }
  TAXOREC_CHECK_MSG(false, "compact snapshots cannot score kVirtual");
}

// ---------------------------------------------------------------------------
// int8 coarse kernels (scalar int32 accumulation; no bit-exact contract).
// ---------------------------------------------------------------------------

int32_t DotQ(const int8_t* x, const int8_t* y, size_t n) {
  int32_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<int32_t>(x[i]) * static_cast<int32_t>(y[i]);
  }
  return acc;
}

int32_t SqDistQ(const int8_t* x, const int8_t* y, size_t n) {
  int32_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    const int32_t d = static_cast<int32_t>(x[i]) - static_cast<int32_t>(y[i]);
    acc += d * d;
  }
  return acc;
}

/// Coarse Lorentz squared distance from quantized rows: dequantizes the
/// quantized full dot and time product with the shared scale^2, then the
/// same acosh transform as the float32 path.
float LorentzSqQ(const int8_t* x, const int8_t* y, size_t n, float s2) {
  const int32_t dot = DotQ(x, y, n);
  const int32_t x0y0 =
      static_cast<int32_t>(x[0]) * static_cast<int32_t>(y[0]);
  return LorentzSqFromDot(s2 * static_cast<float>(dot),
                          s2 * static_cast<float>(x0y0));
}

/// Coarse squared distance of one quantized pair in the kernel's metric.
float CoarseSqDist(bool lorentz, const int8_t* x, const int8_t* y, size_t n,
                   float s2) {
  return lorentz ? LorentzSqQ(x, y, n, s2)
                 : s2 * static_cast<float>(SqDistQ(x, y, n));
}

}  // namespace

const char* ActiveBackendName() { return ActiveBackendImpl().name; }

void ScoreRowRangeF32(const CompactSnapshot& s, uint32_t user, size_t begin,
                      size_t end, double* dst) {
  ScoreSlots(s, ActiveBackendImpl(), user, begin, end - begin, dst);
}

void ScoreItemsF32(const CompactSnapshot& s, uint32_t user,
                   std::span<const uint32_t> items, double* dst) {
  const Backend& b = ActiveBackendImpl();
  for (size_t i = 0; i < items.size(); ++i) {
    ScoreSlots(s, b, user, items[i], 1, dst + i);
  }
}

void ScoreRowRangeInt8(const CompactSnapshot& s, uint32_t user, size_t begin,
                       size_t end, double* dst) {
  TAXOREC_CHECK_MSG(s.has_int8, "snapshot has no int8 channels");
  const size_t count = end - begin;
  const int8_t* u = s.users_q.row(user);
  const size_t stride = s.items_q.stride;
  const float s2 = s.int8_scale_ir * s.int8_scale_ir;
  if (s.kernel == ScoreKernel::kDot) {
    for (size_t i = 0; i < count; ++i) {
      dst[i] = static_cast<double>(
          s2 * static_cast<float>(DotQ(u, s.items_q.row(begin + i), stride)));
    }
    return;
  }
  const bool lorentz = s.kernel == ScoreKernel::kNegLorentzSqDist;
  const float a = s.has_tag_channel() ? s.alpha[user] : 0.0f;
  const int8_t* u_tg = a > 0.0f ? s.users_tg_q.row(user) : nullptr;
  const float s2_tg = s.int8_scale_tg * s.int8_scale_tg;
  for (size_t i = 0; i < count; ++i) {
    float g = CoarseSqDist(lorentz, u, s.items_q.row(begin + i), stride, s2);
    if (a > 0.0f) {
      const float m_tg =
          CoarseSqDist(lorentz, u_tg, s.items_tg_q.row(begin + i),
                       s.items_tg_q.stride, s2_tg);
      g = CombineChannels(a, m_tg, g);
    }
    dst[i] = -static_cast<double>(g);
  }
}

}  // namespace taxorec::f32
