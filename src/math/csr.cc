#include "math/csr.h"

#include <algorithm>
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

// One output row of MultiplyAdd: out = init (+0.0 when null), then
// out += (alpha * w[k]) * x_{cols[k]} for k in order. `x` is the dense
// operand (stride d), `out` may alias `init`.
struct SpmmRow {
  const double* init;
  const uint32_t* cols;
  const double* w;
  size_t nnz;
  double alpha;
  const double* x;
  size_t d;
  double* out;
};

// Portable kernel: one scalar Axpy per nonzero.
void RowPortable(const SpmmRow& a) {
  const vec::Span out(a.out, a.d);
  if (a.init == nullptr) {
    vec::Zero(out);
  } else if (a.init != a.out) {
    vec::Copy(vec::ConstSpan(a.init, a.d), out);
  }
  for (size_t k = 0; k < a.nnz; ++k) {
    vec::Axpy(a.alpha * a.w[k],
              vec::ConstSpan(a.x + static_cast<size_t>(a.cols[k]) * a.d, a.d),
              out);
  }
}

#if TAXOREC_HAVE_AVX2_BUILD
// Register-blocked kernel. The row is cut into strips of up to 16 columns
// (kRegs AVX2 registers); a strip's accumulators stay in registers across
// all of the row's nonzeros and are stored once. Multiply and add are
// separate instructions — the "avx2" target does not enable FMA, so the
// compiler cannot contract them — and every lane computes exactly the
// portable kernel's sequence. In the row's last strip the last register is
// masked: masked-off lanes neither load nor store.
template <int kRegs, bool kMaskLast>
__attribute__((target("avx2"))) inline void StripAvx2(const SpmmRow& a,
                                                      size_t j,
                                                      __m256i mask) {
  __m256d acc[kRegs];
#pragma GCC unroll 4
  for (int i = 0; i < kRegs; ++i) {
    if (a.init == nullptr) {
      acc[i] = _mm256_setzero_pd();
    } else if (kMaskLast && i == kRegs - 1) {
      acc[i] = _mm256_maskload_pd(a.init + j + 4 * i, mask);
    } else {
      acc[i] = _mm256_loadu_pd(a.init + j + 4 * i);
    }
  }
  for (size_t k = 0; k < a.nnz; ++k) {
    const __m256d s = _mm256_set1_pd(a.alpha * a.w[k]);
    const double* xk = a.x + static_cast<size_t>(a.cols[k]) * a.d + j;
#pragma GCC unroll 4
    for (int i = 0; i < kRegs; ++i) {
      const __m256d xv = kMaskLast && i == kRegs - 1
                             ? _mm256_maskload_pd(xk + 4 * i, mask)
                             : _mm256_loadu_pd(xk + 4 * i);
      acc[i] = _mm256_add_pd(acc[i], _mm256_mul_pd(s, xv));
    }
  }
#pragma GCC unroll 4
  for (int i = 0; i < kRegs; ++i) {
    double* o = a.out + j + 4 * i;
    if (kMaskLast && i == kRegs - 1) {
      _mm256_maskstore_pd(o, mask, acc[i]);
    } else {
      _mm256_storeu_pd(o, acc[i]);
    }
  }
}

__attribute__((target("avx2"))) void RowAvx2(const SpmmRow& a) {
  const __m256i none = _mm256_setzero_si256();
  size_t j = 0;
  for (; j + 16 <= a.d; j += 16) StripAvx2<4, false>(a, j, none);
  const size_t rest = a.d - j;
  if (rest == 0) return;
  // Lanes [0, rest - 4 * (regs - 1)) of the last register are live.
  const size_t regs = (rest + 3) / 4;
  const __m256i mask = _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(rest - 4 * (regs - 1))),
      _mm256_set_epi64x(3, 2, 1, 0));
  switch (regs) {
    case 1: StripAvx2<1, true>(a, j, mask); break;
    case 2: StripAvx2<2, true>(a, j, mask); break;
    case 3: StripAvx2<3, true>(a, j, mask); break;
    default: StripAvx2<4, true>(a, j, mask); break;
  }
}
#endif  // TAXOREC_HAVE_AVX2_BUILD

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
                            const RowEpilogue& epilogue) const {
  TAXOREC_CHECK(dense.rows() == cols_);
  TAXOREC_CHECK(out->rows() == rows_ && out->cols() == dense.cols());
  TAXOREC_CHECK(init == nullptr ||
                (init->rows() == rows_ && init->cols() == dense.cols()));
  // Whole-call instruments only: per-row updates would put an atomic RMW in
  // the innermost loop (the <3% armed-overhead budget of
  // bench_micro_kernels is measured against this placement).
  TraceSpan span("spmm");
  static Counter* calls =
      MetricsRegistry::Instance().GetCounter("taxorec.spmm.calls");
  static Counter* row_count =
      MetricsRegistry::Instance().GetCounter("taxorec.spmm.rows");
  calls->Increment();
  row_count->Increment(rows_);
  void (*row_kernel)(const SpmmRow&) = RowPortable;
#if TAXOREC_HAVE_AVX2_BUILD
  if (simd::Avx2Enabled()) row_kernel = RowAvx2;
#endif
  const size_t d = dense.cols();
  const double* x = dense.flat().data();
  const double* in = init == nullptr ? nullptr : init->flat().data();
  double* o = out->flat().data();
  // Row-parallel SpMM: every output row is owned by exactly one worker, so
  // the result is bit-identical at any thread count. Small grain + static
  // round-robin chunks balance the power-law row lengths.
  ParallelFor(0, rows_, /*grain=*/32, [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      const size_t begin = row_ptr_[r];
      row_kernel(SpmmRow{in == nullptr ? nullptr : in + r * d,
                         col_idx_.data() + begin, weights_.data() + begin,
                         row_ptr_[r + 1] - begin, alpha, x, d, o + r * d});
    }
    if (epilogue) epilogue(r0, r1);
  });
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
