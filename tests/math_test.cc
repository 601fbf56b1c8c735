// Unit and property tests for the math substrate: RNG, vector kernels,
// Matrix, and the CSR sparse matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "math/csr.h"
#include "math/matrix.h"
#include "math/rng.h"
#include "math/simd.h"
#include "math/vec_ops.h"
#include "simd_levels.h"

namespace taxorec {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(17), 17u);
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(9);
  std::vector<int> hits(5, 0);
  for (int i = 0; i < 5000; ++i) ++hits[rng.Uniform(5)];
  for (int h : hits) EXPECT_GT(h, 700);  // Expected 1000 each.
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0, sumsq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(13);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 10000; ++i) ++hits[rng.Categorical(w)];
  EXPECT_EQ(hits[2], 0);
  EXPECT_NEAR(hits[0] / 10000.0, 0.1, 0.03);
  EXPECT_NEAR(hits[1] / 10000.0, 0.3, 0.03);
  EXPECT_NEAR(hits[3] / 10000.0, 0.6, 0.03);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  rng.Shuffle(w.begin(), w.end());
  EXPECT_NE(v, w);  // Astronomically unlikely to be equal.
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(VecOpsTest, DotAndNorms) {
  std::vector<double> x = {1.0, 2.0, -3.0};
  std::vector<double> y = {4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(vec::Dot(x, y), 4.0 - 10.0 - 18.0);
  EXPECT_DOUBLE_EQ(vec::SqNorm(x), 14.0);
  EXPECT_DOUBLE_EQ(vec::Norm(x), std::sqrt(14.0));
  EXPECT_DOUBLE_EQ(vec::SqDist(x, y), 9.0 + 49.0 + 81.0);
}

TEST(VecOpsTest, AxpyCombineHadamard) {
  std::vector<double> x = {1.0, 2.0};
  std::vector<double> y = {3.0, 4.0};
  std::vector<double> out(2);
  vec::Combine(2.0, x, -1.0, y, vec::Span(out));
  EXPECT_DOUBLE_EQ(out[0], -1.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  vec::Hadamard(x, y, vec::Span(out));
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 8.0);
  vec::Axpy(0.5, x, vec::Span(y));
  EXPECT_DOUBLE_EQ(y[0], 3.5);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
}

TEST(VecOpsTest, ClipNormOnlyShrinks) {
  std::vector<double> x = {3.0, 4.0};
  vec::ClipNorm(vec::Span(x), 10.0);
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  vec::ClipNorm(vec::Span(x), 1.0);
  EXPECT_NEAR(vec::Norm(x), 1.0, 1e-12);
  EXPECT_NEAR(x[0] / x[1], 0.75, 1e-12);
}

TEST(MatrixTest, BasicAccessAndAxpy) {
  Matrix m(2, 3);
  m.at(0, 0) = 1.0;
  m.at(1, 2) = 5.0;
  Matrix n(2, 3);
  n.at(1, 2) = 2.0;
  m.Axpy(3.0, n);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 11.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(vec::SqNorm(m.flat()), 1.0 + 121.0);
}

TEST(MatrixTest, MatMulAgainstManual) {
  Rng rng(3);
  Matrix a(4, 5), b(5, 3);
  a.FillGaussian(&rng, 1.0);
  b.FillGaussian(&rng, 1.0);
  Matrix out;
  MatMul(a, b, &out);
  ASSERT_EQ(out.rows(), 4u);
  ASSERT_EQ(out.cols(), 3u);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      double expect = 0.0;
      for (size_t k = 0; k < 5; ++k) expect += a.at(i, k) * b.at(k, j);
      EXPECT_NEAR(out.at(i, j), expect, 1e-12);
    }
  }
}

TEST(MatrixTest, TransposedMultipliesAgree) {
  Rng rng(4);
  Matrix a(6, 4), b(6, 3);
  a.FillGaussian(&rng, 1.0);
  b.FillGaussian(&rng, 1.0);
  // a^T b computed two ways.
  Matrix atb;
  MatMulTransposedA(a, b, &atb);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      double expect = 0.0;
      for (size_t k = 0; k < 6; ++k) expect += a.at(k, i) * b.at(k, j);
      EXPECT_NEAR(atb.at(i, j), expect, 1e-12);
    }
  }
  // a b^T with compatible shapes.
  Matrix c(5, 4);
  c.FillGaussian(&rng, 1.0);
  Matrix abt;
  MatMulTransposedB(a, c, &abt);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      double expect = 0.0;
      for (size_t k = 0; k < 4; ++k) expect += a.at(i, k) * c.at(j, k);
      EXPECT_NEAR(abt.at(i, j), expect, 1e-12);
    }
  }
}

TEST(CsrTest, FromPairsBasics) {
  auto m = CsrMatrix::FromPairs(3, 4, {{0, 1}, {0, 3}, {2, 0}, {0, 1}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.nnz(), 3u);  // Duplicate (0,1) collapsed.
  EXPECT_EQ(m.RowNnz(0), 2u);
  EXPECT_EQ(m.RowNnz(1), 0u);
  EXPECT_EQ(m.RowNnz(2), 1u);
  EXPECT_TRUE(m.Contains(0, 1));
  EXPECT_TRUE(m.Contains(0, 3));
  EXPECT_FALSE(m.Contains(0, 2));
  EXPECT_FALSE(m.Contains(1, 1));
  // Duplicate weight summed.
  EXPECT_DOUBLE_EQ(m.RowWeights(0)[0], 2.0);
}

TEST(CsrTest, TransposeRoundTrip) {
  Rng rng(5);
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (int i = 0; i < 200; ++i) {
    edges.emplace_back(rng.Uniform(20), rng.Uniform(30));
  }
  auto m = CsrMatrix::FromPairs(20, 30, edges);
  auto mtt = m.Transposed().Transposed();
  ASSERT_EQ(m.nnz(), mtt.nnz());
  for (size_t r = 0; r < 20; ++r) {
    const auto a = m.RowCols(r);
    const auto b = mtt.RowCols(r);
    ASSERT_EQ(a.size(), b.size());
    for (size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
  }
}

// Bit pattern of a double: distinguishes -0.0 from +0.0 and compares NaNs.
uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Reference SpMM row: init (+0.0 when null), then one separately rounded
// multiply and add per nonzero, in the row's column order.
std::vector<double> ReferenceRow(const CsrMatrix& m, const Matrix& dense,
                                 double alpha, const Matrix* init, size_t r) {
  std::vector<double> row(dense.cols(), 0.0);
  if (init != nullptr) {
    for (size_t j = 0; j < row.size(); ++j) row[j] = init->at(r, j);
  }
  const auto cols = m.RowCols(r);
  const auto w = m.RowWeights(r);
  for (size_t k = 0; k < cols.size(); ++k) {
    const double a = alpha * w[k];
    for (size_t j = 0; j < row.size(); ++j) {
      const double p = a * dense.at(cols[k], j);
      row[j] = row[j] + p;
    }
  }
  return row;
}

// Multiply, MultiplyAccum and MultiplyAdd with each layer finish equal the
// per-nonzero reference bit for bit: every width class of the row kernels
// (one AVX-512 strip of 1-8 registers, 64-column strips before a tail,
// 16-column AVX2 strips, masked tails), empty rows, signed-zero initial
// values, two alphas, every SIMD level the host runs and two thread counts.
// A kernel whose multiply and add were contracted into an FMA fails here.
TEST(CsrTest, MultiplyMatchesReferenceBitForBit) {
  Rng rng(6);
  constexpr size_t kRows = 70, kCols = 45;
  std::vector<std::tuple<uint32_t, uint32_t, double>> triplets;
  for (int i = 0; i < 600; ++i) {
    const uint32_t r = static_cast<uint32_t>(rng.Uniform(kRows));
    if (r % 9 == 4) continue;  // empty rows
    triplets.emplace_back(r, static_cast<uint32_t>(rng.Uniform(kCols)),
                          rng.NextGaussian());
  }
  const CsrMatrix m = CsrMatrix::FromTriplets(kRows, kCols, triplets);
  const int saved_threads = GetNumThreads();
  for (const size_t d :
       {1, 2, 3, 4, 5, 13, 15, 16, 17, 31, 32, 33, 53, 64, 65, 129}) {
    Matrix dense(kCols, d);
    dense.FillGaussian(&rng, 1.0);
    Matrix init(kRows, d), up(kRows, d), sum0(kRows, d);
    init.FillGaussian(&rng, 1.0);
    init.at(4, 0) = -0.0;  // an empty row keeps its -0.0
    init.at(0, 0) = -0.0;
    up.FillGaussian(&rng, 1.0);
    sum0.FillGaussian(&rng, 1.0);
    for (const double alpha : {1.0, 0.25}) {
      for (const simd::Level level : HostSimdLevels()) {
        const SimdLevelCap cap(level);
        for (const int threads : {1, 4}) {
          SetNumThreads(threads);
          Matrix prod;
          Matrix accum = init;
          if (alpha == 1.0) m.Multiply(dense, &prod);
          m.MultiplyAccum(dense, alpha, &accum);
          // The layer finishes: backward (plus an upstream), forward into a
          // first-layer sum (sum_first starts as garbage) and a later one.
          Matrix plus(kRows, d), into(kRows, d), into_first(kRows, d);
          Matrix sum = sum0, sum_first = sum0;
          const CsrMatrix::LayerFinish plus_up{.add = &up};
          const CsrMatrix::LayerFinish into_sum{.sum = &sum};
          const CsrMatrix::LayerFinish into_first_sum{.sum = &sum_first,
                                                      .first = true};
          m.MultiplyAdd(dense, alpha, &init, &plus, &plus_up);
          m.MultiplyAdd(dense, alpha, &init, &into, &into_sum);
          m.MultiplyAdd(dense, alpha, &init, &into_first, &into_first_sum);
          for (size_t r = 0; r < kRows; ++r) {
            const auto want = ReferenceRow(m, dense, alpha, &init, r);
            const auto want0 = ReferenceRow(m, dense, 1.0, nullptr, r);
            for (size_t j = 0; j < d; ++j) {
              const auto where = [&] {
                return "d=" + std::to_string(d) + " alpha=" +
                       std::to_string(alpha) + " row=" + std::to_string(r) +
                       " col=" + std::to_string(j) + " " +
                       CsrMatrix::KernelName() +
                       " threads=" + std::to_string(threads);
              };
              ASSERT_EQ(Bits(accum.at(r, j)), Bits(want[j]))
                  << "MultiplyAccum " << where();
              const double z = want[j] * 0.5;
              ASSERT_EQ(Bits(plus.at(r, j)), Bits(z + up.at(r, j)))
                  << "finish plus up " << where();
              ASSERT_EQ(Bits(into.at(r, j)), Bits(z)) << "finish " << where();
              ASSERT_EQ(Bits(sum.at(r, j)), Bits(sum0.at(r, j) + z))
                  << "finish into sum " << where();
              ASSERT_EQ(Bits(into_first.at(r, j)), Bits(z))
                  << "finish, first layer " << where();
              ASSERT_EQ(Bits(sum_first.at(r, j)), Bits(0.0 + z))
                  << "finish into first sum " << where();
              if (alpha != 1.0) continue;
              ASSERT_EQ(Bits(prod.at(r, j)), Bits(want0[j]))
                  << "Multiply " << where();
            }
          }
        }
      }
    }
  }
  SetNumThreads(saved_threads);
}

bool SameRow(const Matrix& a, const Matrix& b, size_t r) {
  return std::memcmp(a.row(r).data(), b.row(r).data(),
                     a.cols() * sizeof(double)) == 0;
}

// MultiplyAdd over a row list writes the full product's bits on the listed
// rows and leaves every other row of `out` and of the finish's `sum` as it
// was (NaN included), for every width 1-129, every call form (plain, in
// place, each layer finish), every SIMD level the host runs, 1 and 4
// threads, and an empty list, a list of every row and a random list; the
// row counter counts the listed rows alone. The lists are longer than the
// chunk grain, so at 4 threads they run on the pool.
TEST(CsrTest, RowListMatchesFullProductAndLeavesOtherRows) {
  Rng rng(7);
  constexpr size_t kRows = 100, kCols = 45;
  std::vector<std::tuple<uint32_t, uint32_t, double>> triplets;
  for (int i = 0; i < 800; ++i) {
    const uint32_t r = static_cast<uint32_t>(rng.Uniform(kRows));
    if (r % 9 == 4) continue;  // empty rows
    triplets.emplace_back(r, static_cast<uint32_t>(rng.Uniform(kCols)),
                          rng.NextGaussian());
  }
  const CsrMatrix m = CsrMatrix::FromTriplets(kRows, kCols, triplets);
  std::vector<uint32_t> every(kRows);
  std::iota(every.begin(), every.end(), 0u);
  const Counter* row_count =
      MetricsRegistry::Instance().GetCounter("taxorec.spmm.rows");
  const int saved_threads = GetNumThreads();
  for (size_t d = 1; d <= 129; ++d) {
    Matrix dense(kCols, d), init(kRows, d), up(kRows, d);
    Matrix stale_out(kRows, d), stale_sum(kRows, d);
    dense.FillGaussian(&rng, 1.0);
    init.FillGaussian(&rng, 1.0);
    up.FillGaussian(&rng, 1.0);
    stale_out.FillGaussian(&rng, 1.0);
    stale_sum.FillGaussian(&rng, 1.0);
    stale_out.at(kRows / 2, 0) = std::numeric_limits<double>::quiet_NaN();
    stale_sum.at(kRows / 2 + 1, 0) = -0.0;
    std::vector<uint32_t> some;
    for (uint32_t r = 0; r < kRows; ++r) {
      if (rng.Uniform(5) < 2) some.push_back(r);
    }
    const std::vector<uint32_t> lists[] = {{}, every, some};
    // Call forms: 0 plain, 1 in place (init is out), 2 the backward finish,
    // 3 and 4 the forward finish into a later and into the first layer sum.
    auto call = [&](int form, Matrix* out, Matrix* sum,
                    const std::vector<uint32_t>* rows) {
      const CsrMatrix::LayerFinish plus_up{.add = &up};
      const CsrMatrix::LayerFinish into_sum{.sum = sum, .first = form == 4};
      switch (form) {
        case 0: m.MultiplyAdd(dense, 0.25, &init, out, nullptr, rows); break;
        case 1: m.MultiplyAdd(dense, 1.0, out, out, nullptr, rows); break;
        case 2: m.MultiplyAdd(dense, 1.0, &init, out, &plus_up, rows); break;
        default: m.MultiplyAdd(dense, 1.0, &init, out, &into_sum, rows); break;
      }
    };
    for (const simd::Level level : HostSimdLevels()) {
      const SimdLevelCap cap(level);
      for (const int threads : {1, 4}) {
        SetNumThreads(threads);
        for (int form = 0; form < 5; ++form) {
          Matrix full_out = stale_out, full_sum = stale_sum;
          call(form, &full_out, &full_sum, nullptr);
          for (const std::vector<uint32_t>& list : lists) {
            Matrix out = stale_out, sum = stale_sum;
            const uint64_t rows_before = row_count->value();
            call(form, &out, &sum, &list);
            const std::string where =
                "d=" + std::to_string(d) + " form=" + std::to_string(form) +
                " list of " + std::to_string(list.size()) + " " +
                CsrMatrix::KernelName() +
                " threads=" + std::to_string(threads);
            ASSERT_EQ(row_count->value() - rows_before, list.size()) << where;
            size_t next = 0;
            for (size_t r = 0; r < kRows; ++r) {
              const bool listed = next < list.size() && list[next] == r;
              if (listed) ++next;
              ASSERT_TRUE(SameRow(out, listed ? full_out : stale_out, r))
                  << "out row " << r << " " << where;
              ASSERT_TRUE(SameRow(sum, listed ? full_sum : stale_sum, r))
                  << "sum row " << r << " " << where;
            }
          }
        }
      }
    }
  }
  SetNumThreads(saved_threads);
}

// The dispatch names the kernel it runs: the capped level's own kernel on
// every level the host runs.
TEST(CsrTest, KernelNameIsTheActiveLevel) {
  for (const simd::Level level : HostSimdLevels()) {
    const SimdLevelCap cap(level);
    EXPECT_STREQ(CsrMatrix::KernelName(), simd::LevelName(level));
  }
}

TEST(CsrTest, EmptyMatrixIsWellFormed) {
  auto m = CsrMatrix::FromPairs(4, 5, {});
  EXPECT_EQ(m.nnz(), 0u);
  for (size_t r = 0; r < 4; ++r) EXPECT_EQ(m.RowNnz(r), 0u);
  EXPECT_FALSE(m.Contains(0, 0));
  Matrix dense(5, 2);
  Matrix out;
  m.Multiply(dense, &out);
  EXPECT_EQ(out.rows(), 4u);
  for (double v : out.flat()) EXPECT_EQ(v, 0.0);
}

TEST(CsrTest, ContainsOutOfRangeRowIsFalse) {
  auto m = CsrMatrix::FromPairs(2, 2, {{0, 1}});
  EXPECT_FALSE(m.Contains(5, 0));
}

TEST(VecOpsTest, ClipNormZeroVectorIsNoop) {
  std::vector<double> x(3, 0.0);
  vec::ClipNorm(vec::Span(x), 1.0);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

// A finite row whose squared norm overflows is clipped to max_norm along
// its own direction, not zeroed. A row with an infinite entry keeps the
// plain scaling (its finite entries go to zero), and one with a NaN entry
// is left as it is.
TEST(VecOpsTest, ClipNormClipsARowWhoseSquaredNormOverflows) {
  std::vector<double> x = {1e200, 1e200, 1e200};
  vec::ClipNorm(vec::Span(x), 1.0);
  for (const double v : x) EXPECT_NEAR(v, 1.0 / std::sqrt(3.0), 1e-15);
  std::vector<double> y = {-3e300, 4e300, 0.0};
  vec::ClipNorm(vec::Span(y), 2.0);
  EXPECT_NEAR(y[0], -1.2, 1e-15);
  EXPECT_NEAR(y[1], 1.6, 1e-15);
  EXPECT_EQ(y[2], 0.0);
  std::vector<double> top(4, std::numeric_limits<double>::max());
  vec::ClipNorm(vec::Span(top), 1.0);
  for (const double v : top) EXPECT_NEAR(v, 0.5, 1e-15);

  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> with_inf = {inf, 1e200};
  vec::ClipNorm(vec::Span(with_inf), 1.0);
  EXPECT_TRUE(std::isnan(with_inf[0]));
  EXPECT_EQ(with_inf[1], 0.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> with_nan = {nan, 1e200};
  vec::ClipNorm(vec::Span(with_nan), 1.0);
  EXPECT_TRUE(std::isnan(with_nan[0]));
  EXPECT_EQ(with_nan[1], 1e200);
}

TEST(CsrTest, RowNormalizedRowsSumToOne) {
  auto m = CsrMatrix::FromPairs(3, 5, {{0, 1}, {0, 2}, {0, 4}, {2, 3}});
  auto n = m.RowNormalized();
  double s = 0.0;
  for (double w : n.RowWeights(0)) s += w;
  EXPECT_NEAR(s, 1.0, 1e-12);
  EXPECT_NEAR(n.RowWeights(2)[0], 1.0, 1e-12);
}

}  // namespace
}  // namespace taxorec
