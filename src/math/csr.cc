#include "math/csr.h"

#include <algorithm>
#include <functional>
#include <tuple>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "math/simd.h"
#include "math/vec_ops.h"

#if TAXOREC_HAVE_AVX2_BUILD
#include <immintrin.h>
#endif

namespace taxorec {
namespace {

// One MultiplyAdd call as its row kernels see it. Row r of the output is
// v = init_r (+0.0 when init is null) + sum_k (alpha * w_k) * x_{cols_k}
// over the row's nonzeros in column order, each product and sum rounded
// separately; with `halve` set the kernel stores the layer finish of v
// (CsrMatrix::LayerFinish) instead. Rows are d wide; `out` may alias
// `init`.
struct SpmmCall {
  const size_t* row_ptr;
  const uint32_t* cols;
  const double* w;
  double alpha;
  const double* x;
  size_t d;
  const double* init;  // null: +0.0
  double* out;
  bool halve;          // the finish; add and sum are null without it
  const double* add;   // null: none
  double* sum;         // null: none
  bool first;
};

// Portable kernel: one scalar Axpy per nonzero, then the finish over the
// row while it is in L1.
void RowPortable(const SpmmCall& c, size_t r) {
  const size_t off = r * c.d;
  const vec::Span out(c.out + off, c.d);
  if (c.init == nullptr) {
    vec::Zero(out);
  } else if (c.init != c.out) {
    vec::Copy(vec::ConstSpan(c.init + off, c.d), out);
  }
  for (size_t k = c.row_ptr[r]; k < c.row_ptr[r + 1]; ++k) {
    vec::Axpy(c.alpha * c.w[k],
              vec::ConstSpan(c.x + static_cast<size_t>(c.cols[k]) * c.d, c.d),
              out);
  }
  if (!c.halve) return;
  for (size_t j = 0; j < c.d; ++j) {
    double z = out[j] * 0.5;
    if (c.add != nullptr) z = z + c.add[off + j];
    out[j] = z;
    if (c.sum != nullptr) {
      c.sum[off + j] = (c.first ? 0.0 : c.sum[off + j]) + z;
    }
  }
}

#if TAXOREC_HAVE_AVX2_BUILD
// The SIMD kernels keep a strip of the row's accumulators in registers
// across all of the row's nonzeros and store each register once, finished.
// Every lane computes exactly the portable kernel's sequence: multiply and
// add are separate instructions, and csr.cc is compiled with
// -ffp-contract=off because the avx512f target enables FMA, into which GCC
// would otherwise contract them. Masked-off lanes neither load nor store.
// The strips copy the call's fields to locals: the intrinsics' stores may
// alias anything, so GCC would reload every field after each one. A
// template shared by the two widths would need each width's target, and
// GCC does not inline target intrinsics into a function without it.

__attribute__((target("avx2"), always_inline)) inline __m256d LoadAvx2(
    const double* p, bool masked, __m256i mask) {
  return masked ? _mm256_maskload_pd(p, mask) : _mm256_loadu_pd(p);
}

__attribute__((target("avx2"), always_inline)) inline void StoreAvx2(
    double* p, bool masked, __m256i mask, __m256d v) {
  if (masked) {
    _mm256_maskstore_pd(p, mask, v);
  } else {
    _mm256_storeu_pd(p, v);
  }
}

// Columns [j, j + 4 * kRegs) of row r; in the row's last strip the last
// register is masked.
template <int kRegs, bool kMaskLast>
__attribute__((target("avx2"))) inline void StripAvx2(const SpmmCall& c,
                                                      size_t r, size_t j,
                                                      __m256i mask) {
  const size_t d = c.d, off = r * d + j;
  const double alpha = c.alpha;
  const double* const x = c.x + j;
  const double* const init = c.init == nullptr ? nullptr : c.init + off;
  __m256d acc[kRegs];
#pragma GCC unroll 4
  for (int i = 0; i < kRegs; ++i) {
    acc[i] = init == nullptr ? _mm256_setzero_pd()
                             : LoadAvx2(init + 4 * i,
                                        kMaskLast && i == kRegs - 1, mask);
  }
  for (size_t k = c.row_ptr[r], end = c.row_ptr[r + 1]; k < end; ++k) {
    const __m256d s = _mm256_set1_pd(alpha * c.w[k]);
    const double* xk = x + static_cast<size_t>(c.cols[k]) * d;
#pragma GCC unroll 4
    for (int i = 0; i < kRegs; ++i) {
      const __m256d xv =
          LoadAvx2(xk + 4 * i, kMaskLast && i == kRegs - 1, mask);
      acc[i] = _mm256_add_pd(acc[i], _mm256_mul_pd(s, xv));
    }
  }
  double* const out = c.out + off;
  const bool halve = c.halve, first = c.first;
  const double* const add = c.add == nullptr ? nullptr : c.add + off;
  double* const sum = c.sum == nullptr ? nullptr : c.sum + off;
#pragma GCC unroll 4
  for (int i = 0; i < kRegs; ++i) {
    const bool masked = kMaskLast && i == kRegs - 1;
    __m256d v = acc[i];
    if (halve) {
      v = _mm256_mul_pd(v, _mm256_set1_pd(0.5));
      if (add != nullptr) {
        v = _mm256_add_pd(v, LoadAvx2(add + 4 * i, masked, mask));
      }
      if (sum != nullptr) {
        const __m256d s = first ? _mm256_setzero_pd()
                                : LoadAvx2(sum + 4 * i, masked, mask);
        StoreAvx2(sum + 4 * i, masked, mask, _mm256_add_pd(s, v));
      }
    }
    StoreAvx2(out + 4 * i, masked, mask, v);
  }
}

// AVX2: strips of 16 columns (4 registers), one walk of the nonzeros each.
__attribute__((target("avx2"))) void RowAvx2(const SpmmCall& c, size_t r) {
  const __m256i none = _mm256_setzero_si256();
  size_t j = 0;
  for (; j + 16 <= c.d; j += 16) StripAvx2<4, false>(c, r, j, none);
  const size_t rest = c.d - j;
  if (rest == 0) return;
  // Lanes [0, rest - 4 * (regs - 1)) of the last register are live.
  const size_t regs = (rest + 3) / 4;
  const __m256i mask = _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(rest - 4 * (regs - 1))),
      _mm256_set_epi64x(3, 2, 1, 0));
  switch (regs) {
    case 1: StripAvx2<1, true>(c, r, j, mask); break;
    case 2: StripAvx2<2, true>(c, r, j, mask); break;
    case 3: StripAvx2<3, true>(c, r, j, mask); break;
    default: StripAvx2<4, true>(c, r, j, mask); break;
  }
}

// Columns [j, j + 8 * kRegs) of row r; the last register loads and stores
// through `last` (all ones in a full strip).
template <int kRegs>
__attribute__((target("avx512f"))) inline void StripAvx512(const SpmmCall& c,
                                                           size_t r, size_t j,
                                                           __mmask8 last) {
  constexpr int kLast = kRegs - 1;
  const size_t d = c.d, off = r * d + j;
  const double alpha = c.alpha;
  const double* const x = c.x + j;
  const double* const init = c.init == nullptr ? nullptr : c.init + off;
  __m512d acc[kRegs];
#pragma GCC unroll 8
  for (int i = 0; i < kLast; ++i) {
    acc[i] = init == nullptr ? _mm512_setzero_pd()
                             : _mm512_loadu_pd(init + 8 * i);
  }
  acc[kLast] = init == nullptr
                   ? _mm512_setzero_pd()
                   : _mm512_maskz_loadu_pd(last, init + 8 * kLast);
  for (size_t k = c.row_ptr[r], end = c.row_ptr[r + 1]; k < end; ++k) {
    const __m512d s = _mm512_set1_pd(alpha * c.w[k]);
    const double* xk = x + static_cast<size_t>(c.cols[k]) * d;
#pragma GCC unroll 8
    for (int i = 0; i < kLast; ++i) {
      acc[i] = _mm512_add_pd(acc[i],
                             _mm512_mul_pd(s, _mm512_loadu_pd(xk + 8 * i)));
    }
    acc[kLast] = _mm512_add_pd(
        acc[kLast],
        _mm512_mul_pd(s, _mm512_maskz_loadu_pd(last, xk + 8 * kLast)));
  }
  double* const out = c.out + off;
  const bool halve = c.halve, first = c.first;
  const double* const add = c.add == nullptr ? nullptr : c.add + off;
  double* const sum = c.sum == nullptr ? nullptr : c.sum + off;
#pragma GCC unroll 8
  for (int i = 0; i < kRegs; ++i) {
    const __mmask8 m = i == kLast ? last : __mmask8{0xFF};
    __m512d v = acc[i];
    if (halve) {
      v = _mm512_mul_pd(v, _mm512_set1_pd(0.5));
      if (add != nullptr) {
        v = _mm512_add_pd(v, _mm512_maskz_loadu_pd(m, add + 8 * i));
      }
      if (sum != nullptr) {
        const __m512d s = first ? _mm512_setzero_pd()
                                : _mm512_maskz_loadu_pd(m, sum + 8 * i);
        _mm512_mask_storeu_pd(sum + 8 * i, m, _mm512_add_pd(s, v));
      }
    }
    _mm512_mask_storeu_pd(out + 8 * i, m, v);
  }
}

// AVX-512: a row of up to 64 columns is one strip of up to 8 registers, so
// its nonzeros are walked once (53 columns: 7 registers, 13: 2); wider rows
// take 64-column strips first.
__attribute__((target("avx512f"))) void RowAvx512(const SpmmCall& c,
                                                  size_t r) {
  size_t j = 0;
  for (; j + 64 < c.d; j += 64) StripAvx512<8>(c, r, j, 0xFF);
  const size_t rest = c.d - j;
  if (rest == 0) return;
  // Lanes [0, rest - 8 * (regs - 1)) of the last register are live.
  const size_t regs = (rest + 7) / 8;
  const __mmask8 last = static_cast<__mmask8>(0xFFu >> (8 * regs - rest));
  switch (regs) {
    case 1: StripAvx512<1>(c, r, j, last); break;
    case 2: StripAvx512<2>(c, r, j, last); break;
    case 3: StripAvx512<3>(c, r, j, last); break;
    case 4: StripAvx512<4>(c, r, j, last); break;
    case 5: StripAvx512<5>(c, r, j, last); break;
    case 6: StripAvx512<6>(c, r, j, last); break;
    case 7: StripAvx512<7>(c, r, j, last); break;
    default: StripAvx512<8>(c, r, j, last); break;
  }
}
#endif  // TAXOREC_HAVE_AVX2_BUILD

using RowKernel = void (*)(const SpmmCall&, size_t);

// The row kernel of the active SIMD level, and that level.
std::pair<RowKernel, simd::Level> PickRowKernel() {
#if TAXOREC_HAVE_AVX2_BUILD
  switch (simd::ActiveLevel()) {
    case simd::Level::kAvx512:
      return {RowAvx512, simd::Level::kAvx512};
    case simd::Level::kAvx2:
      return {RowAvx2, simd::Level::kAvx2};
    case simd::Level::kPortable:
      break;
  }
#endif
  return {RowPortable, simd::Level::kPortable};
}

}  // namespace

CsrMatrix CsrMatrix::FromPairs(
    size_t rows, size_t cols,
    std::vector<std::pair<uint32_t, uint32_t>> edges) {
  std::vector<std::tuple<uint32_t, uint32_t, double>> triplets;
  triplets.reserve(edges.size());
  for (const auto& [r, c] : edges) triplets.emplace_back(r, c, 1.0);
  return FromTriplets(rows, cols, std::move(triplets));
}

CsrMatrix CsrMatrix::FromTriplets(
    size_t rows, size_t cols,
    std::vector<std::tuple<uint32_t, uint32_t, double>> triplets) {
  std::sort(triplets.begin(), triplets.end(),
            [](const auto& a, const auto& b) {
              return std::tie(std::get<0>(a), std::get<1>(a)) <
                     std::tie(std::get<0>(b), std::get<1>(b));
            });
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.weights_.reserve(triplets.size());
  for (size_t i = 0; i < triplets.size();) {
    const uint32_t r = std::get<0>(triplets[i]);
    const uint32_t c = std::get<1>(triplets[i]);
    TAXOREC_CHECK(r < rows && c < cols);
    double w = 0.0;
    while (i < triplets.size() && std::get<0>(triplets[i]) == r &&
           std::get<1>(triplets[i]) == c) {
      w += std::get<2>(triplets[i]);
      ++i;
    }
    m.col_idx_.push_back(c);
    m.weights_.push_back(w);
    m.row_ptr_[r + 1] = m.col_idx_.size();
  }
  // Rows with no entries inherit the running prefix.
  for (size_t r = 1; r <= rows; ++r) {
    if (m.row_ptr_[r] < m.row_ptr_[r - 1]) m.row_ptr_[r] = m.row_ptr_[r - 1];
  }
  return m;
}

bool CsrMatrix::Contains(uint32_t r, uint32_t c) const {
  if (r >= rows_) return false;
  const auto cols = RowCols(r);
  return std::binary_search(cols.begin(), cols.end(), c);
}

CsrMatrix CsrMatrix::Transposed() const {
  std::vector<std::tuple<uint32_t, uint32_t, double>> triplets;
  triplets.reserve(nnz());
  for (size_t r = 0; r < rows_; ++r) {
    const auto cols = RowCols(r);
    const auto w = RowWeights(r);
    for (size_t k = 0; k < cols.size(); ++k) {
      triplets.emplace_back(cols[k], static_cast<uint32_t>(r), w[k]);
    }
  }
  return FromTriplets(cols_, rows_, std::move(triplets));
}

void CsrMatrix::Multiply(const Matrix& dense, Matrix* out) const {
  out->EnsureShape(rows_, dense.cols());
  MultiplyAdd(dense, 1.0, /*init=*/nullptr, out);
}

void CsrMatrix::MultiplyAccum(const Matrix& dense, double alpha,
                              Matrix* out) const {
  MultiplyAdd(dense, alpha, /*init=*/out, out);
}

void CsrMatrix::MultiplyAdd(const Matrix& dense, double alpha,
                            const Matrix* init, Matrix* out,
                            const LayerFinish* finish,
                            const std::vector<uint32_t>* rows) const {
  TAXOREC_CHECK(dense.rows() == cols_);
  TAXOREC_CHECK(out->rows() == rows_ && out->cols() == dense.cols());
  const auto out_shaped = [&](const Matrix* m) {
    return m == nullptr || (m->rows() == rows_ && m->cols() == dense.cols());
  };
  TAXOREC_CHECK(out_shaped(init));
  TAXOREC_CHECK(finish == nullptr ||
                (out_shaped(finish->add) && out_shaped(finish->sum)));
  // Ascending and distinct: each listed row has one writer, and the last
  // bounds them all.
  TAXOREC_CHECK(rows == nullptr || rows->empty() || rows->back() < rows_);
  TAXOREC_DCHECK(rows == nullptr ||
                 std::adjacent_find(rows->begin(), rows->end(),
                                    std::greater_equal<>()) == rows->end());
  const size_t num_rows = rows == nullptr ? rows_ : rows->size();
  const uint32_t* const list = rows == nullptr ? nullptr : rows->data();
  // Whole-call instruments only: per-row updates would put an atomic RMW in
  // the innermost loop (the <3% armed-overhead budget of
  // bench_micro_kernels is measured against this placement).
  TraceSpan span("spmm");
  static Counter* calls =
      MetricsRegistry::Instance().GetCounter("taxorec.spmm.calls");
  static Counter* row_count =
      MetricsRegistry::Instance().GetCounter("taxorec.spmm.rows");
  calls->Increment();
  row_count->Increment(num_rows);
  const RowKernel row_kernel = PickRowKernel().first;
  const SpmmCall call{
      row_ptr_.data(),
      col_idx_.data(),
      weights_.data(),
      alpha,
      dense.flat().data(),
      dense.cols(),
      init == nullptr ? nullptr : init->flat().data(),
      out->flat().data(),
      finish != nullptr,
      finish == nullptr || finish->add == nullptr ? nullptr
                                                  : finish->add->flat().data(),
      finish == nullptr || finish->sum == nullptr ? nullptr
                                                  : finish->sum->flat().data(),
      finish != nullptr && finish->first};
  // Row-parallel SpMM: every output row is owned by exactly one worker, so
  // the result is bit-identical at any thread count. Small grain + static
  // round-robin chunks balance the power-law row lengths.
  ParallelFor(0, num_rows, /*grain=*/32, [&](size_t i0, size_t i1) {
    for (size_t i = i0; i < i1; ++i) {
      row_kernel(call, list == nullptr ? i : list[i]);
    }
  });
}

const char* CsrMatrix::KernelName() {
  return simd::LevelName(PickRowKernel().second);
}

CsrMatrix CsrMatrix::RowNormalized() const {
  CsrMatrix m = *this;
  for (size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) sum += weights_[k];
    if (sum <= 0.0) continue;
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      m.weights_[k] = weights_[k] / sum;
    }
  }
  return m;
}

}  // namespace taxorec
