// Tests for the bipartite GCN propagation: forward semantics of Eq. 13–14
// and the adjoint backward (checked against finite differences — valid
// because the operator is linear, so the check is exact up to rounding).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "math/csr.h"
#include "math/matrix.h"
#include "math/rng.h"
#include "nn/gcn.h"
#include "nn/mlp.h"
#include "simd_levels.h"

namespace taxorec {
namespace {

double WeightedSum(const Matrix& out, const Matrix& upstream) {
  double acc = 0.0;
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) {
      acc += out.at(r, c) * upstream.at(r, c);
    }
  }
  return acc;
}

CsrMatrix TinyGraph() {
  // 3 users, 4 items.
  return CsrMatrix::FromPairs(3, 4, {{0, 0}, {0, 1}, {1, 1}, {2, 2}, {2, 3}});
}

TEST(GcnTest, SingleLayerMatchesHandComputation) {
  const CsrMatrix x = TinyGraph();
  nn::BipartiteGcn gcn(x, /*num_layers=*/1);
  Matrix zu(3, 2), zv(4, 2);
  // Distinct values to catch index mix-ups.
  for (size_t r = 0; r < 3; ++r) zu.at(r, 0) = static_cast<double>(r + 1);
  for (size_t r = 0; r < 4; ++r) zv.at(r, 1) = static_cast<double>(r + 1);
  nn::GcnContext ctx;
  Matrix ou, ov;
  gcn.Forward(zu, zv, &ctx, &ou, &ov);
  // out_u(0) = (zu(0) + mean(zv(0), zv(1))) / 2:
  EXPECT_DOUBLE_EQ(ou.at(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(ou.at(0, 1), (1.0 + 2.0) / 2.0 / 2.0);
  // out_v(1) = (zv(1) + mean(zu(0), zu(1))) / 2:
  EXPECT_DOUBLE_EQ(ov.at(1, 0), (1.0 + 2.0) / 2.0 / 2.0);
  EXPECT_DOUBLE_EQ(ov.at(1, 1), 1.0);
  // Item 2 only connects to user 2.
  EXPECT_DOUBLE_EQ(ov.at(2, 0), 1.5);
}

TEST(GcnTest, IsolatedNodesDecayGeometrically) {
  // An isolated node receives no neighbour mass; with the averaged residual
  // its embedding halves per layer, so the 3-layer sum is (1/2+1/4+1/8)x.
  const CsrMatrix x = CsrMatrix::FromPairs(2, 2, {{0, 0}});
  nn::BipartiteGcn gcn(x, /*num_layers=*/3);
  Matrix zu(2, 1), zv(2, 1);
  zu.at(1, 0) = 5.0;  // isolated user
  zv.at(1, 0) = 7.0;  // isolated item
  nn::GcnContext ctx;
  Matrix ou, ov;
  gcn.Forward(zu, zv, &ctx, &ou, &ov);
  EXPECT_DOUBLE_EQ(ou.at(1, 0), 5.0 * 0.875);
  EXPECT_DOUBLE_EQ(ov.at(1, 0), 7.0 * 0.875);
}

TEST(GcnTest, BackwardIsExactAdjoint) {
  // For a linear operator F, <upstream, F(x)> must equal <F^T(upstream), x>
  // for all x, upstream — verify with random draws.
  Rng rng(31);
  const CsrMatrix x = TinyGraph();
  for (int layers = 1; layers <= 4; ++layers) {
    nn::BipartiteGcn gcn(x, layers);
    for (int trial = 0; trial < 5; ++trial) {
      Matrix zu(3, 3), zv(4, 3), uu(3, 3), uv(4, 3);
      zu.FillGaussian(&rng, 1.0);
      zv.FillGaussian(&rng, 1.0);
      uu.FillGaussian(&rng, 1.0);
      uv.FillGaussian(&rng, 1.0);
      nn::GcnContext ctx;
      Matrix ou, ov;
      gcn.Forward(zu, zv, &ctx, &ou, &ov);
      Matrix gu, gv;
      gcn.Backward(uu, uv, &gu, &gv);
      const double lhs = WeightedSum(ou, uu) + WeightedSum(ov, uv);
      const double rhs = WeightedSum(zu, gu) + WeightedSum(zv, gv);
      EXPECT_NEAR(lhs, rhs, 1e-9 * std::max(1.0, std::abs(lhs)))
          << "layers=" << layers;
    }
  }
}

TEST(LightGcnPropagationTest, BackwardIsExactAdjoint) {
  Rng rng(33);
  const CsrMatrix x = TinyGraph();
  for (int layers = 1; layers <= 3; ++layers) {
    nn::LightGcnPropagation gcn(x, layers);
    for (int trial = 0; trial < 5; ++trial) {
      Matrix zu(3, 3), zv(4, 3), uu(3, 3), uv(4, 3);
      zu.FillGaussian(&rng, 1.0);
      zv.FillGaussian(&rng, 1.0);
      uu.FillGaussian(&rng, 1.0);
      uv.FillGaussian(&rng, 1.0);
      nn::GcnContext ctx;
      Matrix ou, ov;
      gcn.Forward(zu, zv, &ctx, &ou, &ov);
      Matrix gu, gv;
      gcn.Backward(uu, uv, &gu, &gv);
      const double lhs = WeightedSum(ou, uu) + WeightedSum(ov, uv);
      const double rhs = WeightedSum(zu, gu) + WeightedSum(zv, gv);
      EXPECT_NEAR(lhs, rhs, 1e-9 * std::max(1.0, std::abs(lhs)))
          << "layers=" << layers;
    }
  }
}

TEST(LightGcnPropagationTest, NoSelfConnectionAtOneLayer) {
  // With a single layer, a node's own layer-0 embedding contributes only
  // through the mean with its (neighbour-aggregated) layer-1 value — there
  // is no residual self term inside the propagation itself.
  const CsrMatrix x = TinyGraph();
  nn::LightGcnPropagation gcn(x, 1);
  Matrix zu(3, 1), zv(4, 1);
  zu.at(0, 0) = 2.0;  // only user 0 carries signal
  nn::GcnContext ctx;
  Matrix ou, ov;
  gcn.Forward(zu, zv, &ctx, &ou, &ov);
  // out_u(0) = (z0 + Â·0) / 2 = 1.0 — the self signal enters via the mean.
  EXPECT_DOUBLE_EQ(ou.at(0, 0), 1.0);
  // Items 0,1 (user 0's neighbours) receive propagated signal; item 3 none.
  EXPECT_GT(ov.at(0, 0), 0.0);
  EXPECT_GT(ov.at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(ov.at(3, 0), 0.0);
}

TEST(GcnTest, DeeperPropagationSpreadsInformation) {
  // With 2 layers, user 0's output should contain a contribution from
  // user 1 (via shared item 1) — a neighbours-of-neighbours effect.
  const CsrMatrix x = TinyGraph();
  Matrix zu(3, 1), zv(4, 1);
  zu.at(1, 0) = 1.0;  // Only user 1 carries signal.
  {
    nn::BipartiteGcn gcn1(x, 1);
    nn::GcnContext ctx;
    Matrix ou, ov;
    gcn1.Forward(zu, zv, &ctx, &ou, &ov);
    EXPECT_DOUBLE_EQ(ou.at(0, 0), 0.0);  // 1 layer: no u-u path yet.
  }
  {
    nn::BipartiteGcn gcn2(x, 2);
    nn::GcnContext ctx;
    Matrix ou, ov;
    gcn2.Forward(zu, zv, &ctx, &ou, &ov);
    EXPECT_GT(ou.at(0, 0), 0.0);  // 2 layers: signal arrived.
  }
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectBitEqual(const Matrix& got, const Matrix& want,
                    const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (size_t i = 0; i < got.flat().size(); ++i) {
    ASSERT_EQ(Bits(got.flat()[i]), Bits(want.flat()[i]))
        << what << " element " << i;
  }
}

// Random bipartite graph with isolated users and items.
CsrMatrix RandomGraph(Rng* rng, size_t users, size_t items) {
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (size_t i = 0; i < 4 * users; ++i) {
    const uint32_t u = static_cast<uint32_t>(rng->Uniform(users));
    const uint32_t v = static_cast<uint32_t>(rng->Uniform(items));
    if (u % 7 == 3 || v % 11 == 5) continue;
    edges.emplace_back(u, v);
  }
  return CsrMatrix::FromPairs(users, items, edges);
}

// Gaussian entries with a sprinkle of -0.0, which the layer sum must turn
// into +0.0 exactly as a zeroed sum does.
Matrix RandomInput(Rng* rng, size_t rows, size_t cols) {
  Matrix m(rows, cols);
  m.FillGaussian(rng, 1.0);
  for (size_t i = 0; i < m.flat().size(); i += 5) m.flat()[i] = -0.0;
  return m;
}

// BipartiteGcn as separate copy, SpMM, halve and add passes over fresh
// matrices: the per-element sequence the fused layer passes must keep.
void SeparatePassForward(const CsrMatrix& x, int layers, const Matrix& zu0,
                         const Matrix& zv0, Matrix* out_u, Matrix* out_v) {
  const CsrMatrix pui = x.RowNormalized();
  const CsrMatrix piu = x.Transposed().RowNormalized();
  Matrix zu = zu0, zv = zv0;
  *out_u = Matrix(zu0.rows(), zu0.cols());
  *out_v = Matrix(zv0.rows(), zv0.cols());
  for (int l = 0; l < layers; ++l) {
    Matrix nu = zu, nv = zv;
    pui.MultiplyAccum(zv, 1.0, &nu);
    piu.MultiplyAccum(zu, 1.0, &nv);
    for (double& v : nu.flat()) v *= 0.5;
    for (double& v : nv.flat()) v *= 0.5;
    out_u->Axpy(1.0, nu);
    out_v->Axpy(1.0, nv);
    zu = std::move(nu);
    zv = std::move(nv);
  }
}

void SeparatePassBackward(const CsrMatrix& x, int layers, const Matrix& up_u,
                          const Matrix& up_v, Matrix* gu, Matrix* gv) {
  const CsrMatrix pui_t = x.RowNormalized().Transposed();
  const CsrMatrix piu_t = x.Transposed().RowNormalized().Transposed();
  Matrix au = up_u, av = up_v;
  for (int l = layers - 1; l >= 0; --l) {
    Matrix nu = au, nv = av;
    piu_t.MultiplyAccum(av, 1.0, &nu);
    pui_t.MultiplyAccum(au, 1.0, &nv);
    for (double& v : nu.flat()) v *= 0.5;
    for (double& v : nv.flat()) v *= 0.5;
    if (l >= 1) {
      nu.Axpy(1.0, up_u);
      nv.Axpy(1.0, up_v);
    }
    au = std::move(nu);
    av = std::move(nv);
  }
  *gu = std::move(au);
  *gv = std::move(av);
}

// The layer finish runs in the row kernels' store phase, so this runs on
// every SIMD level the host has, at 1 and 4 threads: a row finished twice,
// or not at all, fails.
TEST(GcnTest, FusedLayersMatchSeparatePassesBitForBit) {
  Rng rng(41);
  const CsrMatrix x = RandomGraph(&rng, 90, 130);
  const int saved_threads = GetNumThreads();
  for (int layers = 1; layers <= 4; ++layers) {
    nn::BipartiteGcn gcn(x, layers);
    for (const size_t d : {3, 16, 53}) {
      const Matrix zu = RandomInput(&rng, 90, d);
      const Matrix zv = RandomInput(&rng, 130, d);
      for (const simd::Level level : HostSimdLevels()) {
        const SimdLevelCap cap(level);
        for (const int threads : {1, 4}) {
          SetNumThreads(threads);
          nn::GcnContext ctx;
          Matrix ou, ov, wu, wv;
          gcn.Forward(zu, zv, &ctx, &ou, &ov);
          SeparatePassForward(x, layers, zu, zv, &wu, &wv);
          const std::string tag = "layers=" + std::to_string(layers) +
                                  " d=" + std::to_string(d) + " " +
                                  CsrMatrix::KernelName() + " threads=" +
                                  std::to_string(threads);
          ExpectBitEqual(ou, wu, "forward users " + tag);
          ExpectBitEqual(ov, wv, "forward items " + tag);
          Matrix gu, gv;
          gcn.Backward(zu, zv, &gu, &gv, &ctx);
          SeparatePassBackward(x, layers, zu, zv, &wu, &wv);
          ExpectBitEqual(gu, wu, "backward users " + tag);
          ExpectBitEqual(gv, wv, "backward items " + tag);
        }
      }
    }
  }
  SetNumThreads(saved_threads);
}

// One context and one set of outputs reused across calls with different
// inputs and widths give exactly what fresh ones give: no stale workspace
// row survives into a result.
template <typename Gcn>
void ExpectReuseMatchesFresh(const CsrMatrix& x, Rng* rng) {
  for (int layers = 1; layers <= 4; ++layers) {
    const Gcn gcn(x, layers);
    nn::GcnContext ctx;
    Matrix ou, ov, gu, gv;
    for (const size_t d : {5, 17, 5, 64, 3, 17}) {
      const Matrix zu = RandomInput(rng, x.rows(), d);
      const Matrix zv = RandomInput(rng, x.cols(), d);
      const Matrix up_u = RandomInput(rng, x.rows(), d);
      const Matrix up_v = RandomInput(rng, x.cols(), d);
      gcn.Forward(zu, zv, &ctx, &ou, &ov);
      gcn.Backward(up_u, up_v, &gu, &gv, &ctx);
      nn::GcnContext fresh_ctx;
      Matrix fu, fv, fgu, fgv;
      gcn.Forward(zu, zv, &fresh_ctx, &fu, &fv);
      gcn.Backward(up_u, up_v, &fgu, &fgv);
      const std::string tag =
          "layers=" + std::to_string(layers) + " d=" + std::to_string(d);
      ExpectBitEqual(ou, fu, "forward users " + tag);
      ExpectBitEqual(ov, fv, "forward items " + tag);
      ExpectBitEqual(gu, fgu, "backward users " + tag);
      ExpectBitEqual(gv, fgv, "backward items " + tag);
    }
  }
}

TEST(GcnTest, ReusedWorkspaceMatchesFresh) {
  Rng rng(43);
  ExpectReuseMatchesFresh<nn::BipartiteGcn>(RandomGraph(&rng, 70, 95), &rng);
}

TEST(LightGcnPropagationTest, ReusedWorkspaceMatchesFresh) {
  Rng rng(44);
  ExpectReuseMatchesFresh<nn::LightGcnPropagation>(RandomGraph(&rng, 70, 95),
                                                   &rng);
}

TEST(MlpTest, GradCheckThroughReluTower) {
  Rng rng(32);
  nn::Mlp mlp({4, 6, 3}, &rng);
  std::vector<double> x = {0.3, -0.7, 1.2, 0.1};
  std::vector<double> upstream = {1.0, -2.0, 0.5};
  mlp.Forward(x);
  const std::vector<double> grad_in = mlp.Backward(upstream);
  const double eps = 1e-6;
  for (size_t i = 0; i < x.size(); ++i) {
    auto xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const auto op = mlp.Forward(xp);
    const auto om = mlp.Forward(xm);
    double fd = 0.0;
    for (size_t j = 0; j < upstream.size(); ++j) {
      fd += upstream[j] * (op[j] - om[j]) / (2.0 * eps);
    }
    EXPECT_NEAR(grad_in[i], fd, 1e-4 * std::max(1.0, std::abs(fd)));
  }
}

TEST(MlpTest, StepReducesSimpleRegressionLoss) {
  Rng rng(33);
  nn::Mlp mlp({2, 8, 1}, &rng);
  // Fit y = x0 - x1 on a few points.
  const std::vector<std::vector<double>> xs = {
      {1.0, 0.0}, {0.0, 1.0}, {0.5, 0.2}, {-0.3, 0.4}};
  auto loss = [&]() {
    double acc = 0.0;
    for (const auto& x : xs) {
      const double y = x[0] - x[1];
      const double p = mlp.Forward(x)[0];
      acc += (p - y) * (p - y);
    }
    return acc;
  };
  const double before = loss();
  for (int iter = 0; iter < 200; ++iter) {
    for (const auto& x : xs) {
      const double y = x[0] - x[1];
      const double p = mlp.Forward(x)[0];
      const std::vector<double> up = {2.0 * (p - y)};
      mlp.Backward(up);
      mlp.Step(0.05);
    }
  }
  EXPECT_LT(loss(), before * 0.05);
}

}  // namespace
}  // namespace taxorec
