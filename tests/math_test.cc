// Unit and property tests for the math substrate: RNG, vector kernels,
// Matrix, and the CSR sparse matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "math/csr.h"
#include "math/matrix.h"
#include "math/rng.h"
#include "math/simd.h"
#include "math/vec_ops.h"

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

// Multiply and MultiplyAccum equal the per-nonzero reference bit for bit:
// every width class of the register-blocked kernel (full 16-column strips,
// short strips, masked tails), empty rows, signed-zero initial values, two
// alphas, both SIMD backends and two thread counts.
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
  for (const size_t d : {1, 2, 3, 4, 5, 13, 15, 16, 17, 31, 32, 33, 53, 65}) {
    Matrix dense(kCols, d);
    dense.FillGaussian(&rng, 1.0);
    Matrix init(kRows, d);
    init.FillGaussian(&rng, 1.0);
    init.at(4, 0) = -0.0;  // an empty row keeps its -0.0
    init.at(0, 0) = -0.0;
    for (const double alpha : {1.0, 0.25}) {
      for (const bool portable : {false, true}) {
        simd::ForcePortableForTest(portable);
        for (const int threads : {1, 4}) {
          SetNumThreads(threads);
          Matrix prod;
          Matrix accum = init;
          if (alpha == 1.0) m.Multiply(dense, &prod);
          m.MultiplyAccum(dense, alpha, &accum);
          for (size_t r = 0; r < kRows; ++r) {
            const auto want = ReferenceRow(m, dense, alpha, &init, r);
            const auto want0 = ReferenceRow(m, dense, 1.0, nullptr, r);
            for (size_t j = 0; j < d; ++j) {
              ASSERT_EQ(Bits(accum.at(r, j)), Bits(want[j]))
                  << "MultiplyAccum d=" << d << " alpha=" << alpha
                  << " row=" << r << " col=" << j << " "
                  << simd::ActiveBackend() << " threads=" << threads;
              if (alpha != 1.0) continue;
              ASSERT_EQ(Bits(prod.at(r, j)), Bits(want0[j]))
                  << "Multiply d=" << d << " row=" << r << " col=" << j
                  << " " << simd::ActiveBackend() << " threads=" << threads;
            }
          }
        }
      }
    }
  }
  simd::ForcePortableForTest(false);
  SetNumThreads(saved_threads);
}

// MultiplyAdd's epilogue sees every output row exactly once, after the
// kernel wrote it.
TEST(CsrTest, MultiplyAddEpilogueCoversEveryRowOnceAfterTheKernel) {
  Rng rng(8);
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (int i = 0; i < 400; ++i) {
    edges.emplace_back(rng.Uniform(150), rng.Uniform(40));
  }
  const CsrMatrix m = CsrMatrix::FromPairs(150, 40, edges);
  Matrix dense(40, 3), init(150, 3), out(150, 3), after(150, 3);
  dense.FillGaussian(&rng, 1.0);
  init.FillGaussian(&rng, 1.0);
  std::vector<int> seen(150, 0);
  const int saved_threads = GetNumThreads();
  SetNumThreads(4);
  m.MultiplyAdd(dense, 1.0, &init, &out, [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      ++seen[r];
      for (size_t j = 0; j < 3; ++j) after.at(r, j) = out.at(r, j);
    }
  });
  SetNumThreads(saved_threads);
  Matrix want = init;
  m.MultiplyAccum(dense, 1.0, &want);
  for (size_t r = 0; r < 150; ++r) {
    EXPECT_EQ(seen[r], 1) << "row " << r;
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(Bits(after.at(r, j)), Bits(want.at(r, j))) << "row " << r;
    }
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
