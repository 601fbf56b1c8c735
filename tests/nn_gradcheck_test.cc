// Finite-difference gradient checks for every manually-differentiated
// layer: Lorentz log/exp map layers, the composed GCN channel, the
// Einstein-midpoint tag aggregation, and the scalar losses. These tests pin
// the closed-form Jacobians that replace autograd (DESIGN.md §1).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/heap_stats.h"
#include "common/parallel.h"
#include "data/sampler.h"
#include "hyperbolic/lorentz.h"
#include "hyperbolic/poincare.h"
#include "math/csr.h"
#include "math/matrix.h"
#include "math/rng.h"
#include "math/vec_ops.h"
#include "nn/gcn.h"
#include "nn/losses.h"
#include "nn/lorentz_layers.h"
#include "nn/midpoint.h"
#include "serve/snapshot.h"

namespace taxorec {
namespace {

constexpr double kEps = 1e-6;
constexpr double kRelTol = 2e-4;

void ExpectClose(double got, double want, const char* what, int i) {
  EXPECT_NEAR(got, want, kRelTol * std::max(1.0, std::abs(want)))
      << what << " coordinate " << i;
}

// Scalar objective: sum of upstream-weighted outputs. Its gradient w.r.t.
// inputs equals the layer backward applied to `upstream`.
double WeightedSum(const Matrix& out, const Matrix& upstream) {
  double acc = 0.0;
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) {
      acc += out.at(r, c) * upstream.at(r, c);
    }
  }
  return acc;
}

TEST(GradCheckTest, LogMapOriginLayer) {
  Rng rng(21);
  const size_t n = 4, d1 = 6;
  Matrix x(n, d1);
  for (size_t r = 0; r < n; ++r) lorentz::RandomPoint(&rng, 1.0, x.row(r));
  Matrix upstream(n, d1);
  upstream.FillGaussian(&rng, 1.0);
  // The forward ignores upstream[.,0] (output column 0 is identically 0);
  // zero it so the finite difference of the weighted sum matches.
  for (size_t r = 0; r < n; ++r) upstream.at(r, 0) = 0.0;

  Matrix grad(n, d1);
  nn::LogMapOriginBackward(x, upstream, &grad);

  Matrix z;
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d1; ++c) {
      Matrix xp = x, xm = x;
      xp.at(r, c) += kEps;
      xm.at(r, c) -= kEps;
      Matrix zp, zm;
      nn::LogMapOriginForward(xp, &zp);
      nn::LogMapOriginForward(xm, &zm);
      const double fd =
          (WeightedSum(zp, upstream) - WeightedSum(zm, upstream)) /
          (2.0 * kEps);
      ExpectClose(grad.at(r, c), fd, "logmap", static_cast<int>(c));
    }
  }
}

TEST(GradCheckTest, ExpMapOriginLayer) {
  Rng rng(22);
  const size_t n = 4, d1 = 6;
  Matrix z(n, d1);
  z.FillGaussian(&rng, 0.8);
  for (size_t r = 0; r < n; ++r) z.at(r, 0) = 0.0;  // Tangent at origin.
  Matrix upstream(n, d1);
  upstream.FillGaussian(&rng, 1.0);

  Matrix grad(n, d1);
  nn::ExpMapOriginBackward(z, upstream, &grad);

  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 1; c < d1; ++c) {  // z[.,0] is constrained to 0.
      Matrix zp = z, zm = z;
      zp.at(r, c) += kEps;
      zm.at(r, c) -= kEps;
      Matrix yp, ym;
      nn::ExpMapOriginForward(zp, &yp);
      nn::ExpMapOriginForward(zm, &ym);
      const double fd =
          (WeightedSum(yp, upstream) - WeightedSum(ym, upstream)) /
          (2.0 * kEps);
      ExpectClose(grad.at(r, c), fd, "expmap", static_cast<int>(c));
    }
  }
}

TEST(GradCheckTest, ExpMapNearOriginIsStable) {
  // Tiny tangent vectors exercise the near-origin limit branch.
  Matrix z(1, 5);
  z.at(0, 2) = 1e-9;
  Matrix upstream(1, 5);
  for (size_t c = 0; c < 5; ++c) upstream.at(0, c) = 1.0;
  Matrix grad(1, 5);
  nn::ExpMapOriginBackward(z, upstream, &grad);
  for (size_t c = 1; c < 5; ++c) {
    EXPECT_TRUE(std::isfinite(grad.at(0, c)));
    EXPECT_NEAR(grad.at(0, c), 1.0, 1e-6);  // Identity limit.
  }
}

// A row whose upstream is all zero, -0.0 entries included, keeps the +0.0
// of its zeroed gradient row (the arithmetic would add +0.0 there for a
// finite row), and the other rows get what they get on their own.
TEST(GradCheckTest, ExpMapBackwardKeepsZeroUpstreamRowsZero) {
  Rng rng(24);
  const size_t d1 = 6;
  Matrix z(3, d1);
  z.FillGaussian(&rng, 0.8);
  Matrix upstream(3, d1);
  for (size_t r = 0; r < 3; ++r) z.at(r, 0) = 0.0;  // Tangent at origin.
  for (size_t c = 0; c < d1; ++c) {
    upstream.at(0, c) = -0.0;
    upstream.at(1, c) = rng.NextGaussian();
  }
  Matrix grad(3, d1);
  nn::ExpMapOriginBackward(z, upstream, &grad);
  for (size_t r : {0, 2}) {
    for (size_t c = 0; c < d1; ++c) {
      EXPECT_EQ(grad.at(r, c), 0.0);
      EXPECT_FALSE(std::signbit(grad.at(r, c))) << "row " << r;
    }
  }
  Matrix z1(1, d1), up1(1, d1), grad1(1, d1);
  vec::Copy(z.row(1), z1.row(0));
  vec::Copy(upstream.row(1), up1.row(0));
  nn::ExpMapOriginBackward(z1, up1, &grad1);
  for (size_t c = 0; c < d1; ++c) EXPECT_EQ(grad.at(1, c), grad1.at(0, c));
}

// --- The composed channel: leaves → (log_o →) GCN (→ exp_o) → squared
// distance (ScoringSnapshot::PairDistance).

using Pairs = std::vector<std::pair<uint32_t, uint32_t>>;

// Random bipartite graph; user 0 and the last item stay isolated.
CsrMatrix ChannelGraph(Rng* rng, size_t users, size_t items) {
  Pairs edges;
  for (size_t i = 0; i < 3 * users; ++i) {
    const uint32_t u = static_cast<uint32_t>(1 + rng->Uniform(users - 1));
    const uint32_t v = static_cast<uint32_t>(rng->Uniform(items - 1));
    edges.emplace_back(u, v);
  }
  return CsrMatrix::FromPairs(users, items, edges);
}

// Leaf rows of 5 coordinates, spread wider than InitLeaves' so the maps
// work away from their near-origin branch.
Matrix ChannelLeaves(bool hyperbolic, Rng* rng, size_t rows) {
  Matrix leaves(rows, nn::GcnChannel(hyperbolic).cols(5));
  if (!hyperbolic) {
    leaves.FillGaussian(rng, 0.6);
    return leaves;
  }
  for (size_t r = 0; r < rows; ++r) {
    lorentz::RandomPoint(rng, 0.6, leaves.row(r));
  }
  return leaves;
}

double ChannelLoss(bool hyperbolic, const nn::BipartiteGcn& gcn,
                   const Matrix& users, const Matrix& items,
                   const Pairs& pairs) {
  nn::GcnChannel channel(hyperbolic);
  channel.Forward(gcn, users, items);
  const ScoringSnapshot rows{hyperbolic ? ScoreKernel::kNegLorentzSqDist
                                        : ScoreKernel::kNegSqDist,
                             &channel.out_u(), &channel.out_v()};
  double loss = 0.0;
  for (const auto& [u, v] : pairs) loss += rows.PairDistance(u, v);
  return loss;
}

// Leaves' gradients of s × ChannelLoss into channel->grad_u()/grad_v().
void ChannelGrad(nn::GcnChannel* channel, const nn::BipartiteGcn& gcn,
                 const Matrix& users, const Matrix& items, const Pairs& pairs,
                 double s) {
  channel->Forward(gcn, users, items);
  channel->ZeroGrads();
  for (const auto& [u, v] : pairs) {
    channel->AddSqDistanceGrad(u, v, s, channel->grad_u().row(u),
                               channel->grad_v().row(v));
  }
  channel->Backward(gcn, users, items);
}

// ChannelGrad, then both leaf steps.
void ChannelStep(nn::GcnChannel* channel, const nn::BipartiteGcn& gcn,
                 Matrix* users, Matrix* items, const Pairs& pairs, double s) {
  ChannelGrad(channel, gcn, *users, *items, pairs, s);
  channel->Step(users, channel->grad_u(), 0.05, 1.0);
  channel->Step(items, channel->grad_v(), 0.05, 1.0);
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size() * sizeof(double)) == 0;
}

// Pairs that reach an isolated user (0) and item (9), and repeat a user.
const Pairs kPairs = {{1, 2}, {3, 0}, {0, 4}, {5, 9}, {3, 7}, {6, 6}};

// The whole chain against central differences of the summed squared
// distances, on every coordinate of both leaf tables (hyperboloid leaves
// are perturbed off the manifold, where the log map's formula still holds).
TEST(GradCheckTest, GcnChannelMatchesFiniteDifferences) {
  for (const bool hyperbolic : {true, false}) {
    Rng rng(25);
    const nn::BipartiteGcn gcn(ChannelGraph(&rng, 8, 10), /*num_layers=*/2);
    const Matrix users = ChannelLeaves(hyperbolic, &rng, 8);
    const Matrix items = ChannelLeaves(hyperbolic, &rng, 10);
    nn::GcnChannel channel(hyperbolic);
    ChannelGrad(&channel, gcn, users, items, kPairs, 1.0);
    const char* what = hyperbolic ? "lorentz channel" : "euclid channel";
    for (const bool user_side : {true, false}) {
      const Matrix& leaves = user_side ? users : items;
      const Matrix& grad = user_side ? channel.grad_u() : channel.grad_v();
      for (size_t r = 0; r < leaves.rows(); ++r) {
        for (size_t c = 0; c < leaves.cols(); ++c) {
          Matrix plus = leaves, minus = leaves;
          plus.at(r, c) += kEps;
          minus.at(r, c) -= kEps;
          const double fd =
              user_side
                  ? (ChannelLoss(hyperbolic, gcn, plus, items, kPairs) -
                     ChannelLoss(hyperbolic, gcn, minus, items, kPairs))
                  : (ChannelLoss(hyperbolic, gcn, users, plus, kPairs) -
                     ChannelLoss(hyperbolic, gcn, users, minus, kPairs));
          ExpectClose(grad.at(r, c), fd / (2.0 * kEps), what,
                      static_cast<int>(c));
        }
      }
    }
  }
}

// A channel's second step reuses the buffers of its first (in Euclidean
// space with the gradient and tangent buffers swapped) and must land on the
// bits of a fresh channel taking that step.
TEST(GradCheckTest, GcnChannelSecondStepMatchesFreshChannelBitForBit) {
  const Pairs second = {{2, 3}, {7, 1}, {4, 8}, {2, 5}};
  for (const bool hyperbolic : {true, false}) {
    Rng rng(26);
    const nn::BipartiteGcn gcn(ChannelGraph(&rng, 8, 10), /*num_layers=*/3);
    Matrix users = ChannelLeaves(hyperbolic, &rng, 8);
    Matrix items = ChannelLeaves(hyperbolic, &rng, 10);
    nn::GcnChannel reused(hyperbolic);
    ChannelStep(&reused, gcn, &users, &items, kPairs, 1.0);
    Matrix fresh_users = users, fresh_items = items;
    ChannelStep(&reused, gcn, &users, &items, second, 0.5);
    nn::GcnChannel fresh(hyperbolic);
    ChannelStep(&fresh, gcn, &fresh_users, &fresh_items, second, 0.5);
    const std::string what = hyperbolic ? "lorentz " : "euclid ";
    EXPECT_TRUE(SameBits(reused.out_u(), fresh.out_u())) << what << "out_u";
    EXPECT_TRUE(SameBits(reused.out_v(), fresh.out_v())) << what << "out_v";
    EXPECT_TRUE(SameBits(reused.grad_u(), fresh.grad_u())) << what << "grad_u";
    EXPECT_TRUE(SameBits(reused.grad_v(), fresh.grad_v())) << what << "grad_v";
    EXPECT_TRUE(SameBits(users, fresh_users)) << what << "users";
    EXPECT_TRUE(SameBits(items, fresh_items)) << what << "items";
  }
}

// Three steps of a channel whose Forward is limited to each batch's rows
// land on the leaves of a channel that propagates every row, bit for bit:
// both geometries, 1-3 layers, 1 and 4 threads. Later batches meet the
// rows earlier ones left stale, and a dropped batch row reads a stale
// output. The batches list more rows than the SpMM's chunk grain, so at 4
// threads the row lists run on the pool.
TEST(GradCheckTest, GcnChannelBatchLimitedStepMatchesFullStepBitForBit) {
  constexpr size_t kUsers = 120, kItems = 160, kBatch = 48;
  const int saved_threads = GetNumThreads();
  for (const bool hyperbolic : {true, false}) {
    for (int layers = 1; layers <= 3; ++layers) {
      for (const int threads : {1, 4}) {
        SetNumThreads(threads);
        Rng rng(28);
        const nn::BipartiteGcn gcn(ChannelGraph(&rng, kUsers, kItems),
                                   layers);
        Matrix users = ChannelLeaves(hyperbolic, &rng, kUsers);
        Matrix items = ChannelLeaves(hyperbolic, &rng, kItems);
        Matrix full_users = users, full_items = items;
        nn::GcnChannel limited(hyperbolic), full(hyperbolic);
        std::vector<Triplet> batch(kBatch);
        nn::BatchRows rows;
        for (int step = 0; step < 3; ++step) {
          for (Triplet& t : batch) {
            t = {static_cast<uint32_t>(rng.Uniform(kUsers)),
                 static_cast<uint32_t>(rng.Uniform(kItems)),
                 static_cast<uint32_t>(rng.Uniform(kItems))};
          }
          rows.Assign(batch);
          limited.Forward(gcn, users, items, &rows);
          full.Forward(gcn, full_users, full_items);
          for (nn::GcnChannel* c : {&limited, &full}) {
            c->ZeroGrads();
            for (const Triplet& t : batch) {
              c->AddSqDistanceGrad(t.user, t.pos, 1.0, c->grad_u().row(t.user),
                                   c->grad_v().row(t.pos));
              c->AddSqDistanceGrad(t.user, t.neg, -0.5,
                                   c->grad_u().row(t.user),
                                   c->grad_v().row(t.neg));
            }
          }
          limited.Backward(gcn, users, items);
          full.Backward(gcn, full_users, full_items);
          limited.Step(&users, limited.grad_u(), 0.05, 1.0);
          limited.Step(&items, limited.grad_v(), 0.05, 1.0);
          full.Step(&full_users, full.grad_u(), 0.05, 1.0);
          full.Step(&full_items, full.grad_v(), 0.05, 1.0);
          const std::string what =
              std::string(hyperbolic ? "lorentz" : "euclid") +
              " layers=" + std::to_string(layers) +
              " threads=" + std::to_string(threads) +
              " step=" + std::to_string(step) + " ";
          ASSERT_TRUE(SameBits(users, full_users)) << what << "users";
          ASSERT_TRUE(SameBits(items, full_items)) << what << "items";
        }
      }
    }
  }
  SetNumThreads(saved_threads);
}

// Once the first step has sized the channel's buffers, a step allocates
// less than one users × cols leaf matrix at any moment.
TEST(GradCheckTest, GcnChannelSecondStepAllocatesNoLeafMatrix) {
  if (!HeapStatsEnabled()) {
    GTEST_SKIP() << "tagged allocator compiled out (sanitizer build)";
  }
  const int saved_threads = GetNumThreads();
  SetNumThreads(1);  // HeapScope tags the calling thread's allocations
  for (const bool hyperbolic : {true, false}) {
    Rng rng(27);
    const nn::BipartiteGcn gcn(ChannelGraph(&rng, 40, 60), /*num_layers=*/2);
    Matrix users = ChannelLeaves(hyperbolic, &rng, 40);
    Matrix items = ChannelLeaves(hyperbolic, &rng, 60);
    nn::GcnChannel channel(hyperbolic);
    ChannelStep(&channel, gcn, &users, &items, kPairs, 1.0);
    const std::string name =
        std::string("test.channel_step.") + (hyperbolic ? "lorentz" : "euclid");
    const int tag = RegisterHeapSubsystem(name);
    ASSERT_NE(tag, 0) << "heap subsystem table full";
    {
      HeapScope scope(tag);
      ChannelStep(&channel, gcn, &users, &items, kPairs, 1.0);
    }
    int64_t peak = -1;
    for (const auto& s : HeapStatsSnapshot()) {
      if (s.name == name) peak = s.peak_bytes;
    }
    EXPECT_LT(peak, static_cast<int64_t>(users.rows() * users.cols() *
                                         sizeof(double)))
        << name;
  }
  SetNumThreads(saved_threads);
}

TEST(GradCheckTest, TagAggregationLayer) {
  Rng rng(23);
  const size_t items = 5, tags = 7, dt = 4;
  // Item-tag matrix with varying fan-out, including an untagged item.
  std::vector<std::pair<uint32_t, uint32_t>> edges = {
      {0, 0}, {0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 4}, {3, 5}, {3, 6}, {3, 0}};
  const CsrMatrix psi = CsrMatrix::FromPairs(items, tags, edges);

  Matrix tp(tags, dt);
  for (size_t t = 0; t < tags; ++t) {
    poincare::RandomPoint(&rng, 0.8, tp.row(t));
  }
  nn::TagAggregation agg(&psi);
  nn::TagAggContext ctx;
  Matrix out;
  agg.Forward(tp, &ctx, &out);
  ASSERT_EQ(out.rows(), items);
  ASSERT_EQ(out.cols(), dt + 1);

  // Outputs are valid Lorentz points; untagged item 4 maps to the origin.
  for (size_t v = 0; v < items; ++v) {
    EXPECT_NEAR(lorentz::Inner(out.row(v), out.row(v)), -1.0, 1e-8);
  }
  EXPECT_NEAR(out.at(4, 0), 1.0, 1e-12);

  Matrix upstream(items, dt + 1);
  upstream.FillGaussian(&rng, 1.0);
  Matrix grad(tags, dt);
  agg.Backward(tp, ctx, upstream, &grad);

  for (size_t t = 0; t < tags; ++t) {
    for (size_t c = 0; c < dt; ++c) {
      Matrix tpp = tp, tpm = tp;
      tpp.at(t, c) += kEps;
      tpm.at(t, c) -= kEps;
      nn::TagAggContext cp, cm;
      Matrix op, om;
      agg.Forward(tpp, &cp, &op);
      agg.Forward(tpm, &cm, &om);
      const double fd =
          (WeightedSum(op, upstream) - WeightedSum(om, upstream)) /
          (2.0 * kEps);
      ExpectClose(grad.at(t, c), fd, "tagagg", static_cast<int>(c));
    }
  }
}

TEST(LossTest, HingeTripletValuesAndGrads) {
  double dpos, dneg;
  EXPECT_DOUBLE_EQ(nn::HingeTriplet(0.5, 1.0, 2.0, &dpos, &dneg), 0.0);
  EXPECT_DOUBLE_EQ(dpos, 0.0);
  EXPECT_DOUBLE_EQ(dneg, 0.0);
  EXPECT_DOUBLE_EQ(nn::HingeTriplet(0.5, 2.0, 1.0, &dpos, &dneg), 1.5);
  EXPECT_DOUBLE_EQ(dpos, 1.0);
  EXPECT_DOUBLE_EQ(dneg, -1.0);
}

TEST(LossTest, BprMatchesDefinitionAndGrad) {
  for (double diff : {-5.0, -0.5, 0.0, 0.5, 5.0}) {
    double ddiff;
    const double loss = nn::Bpr(diff, &ddiff);
    EXPECT_NEAR(loss, -std::log(nn::Sigmoid(diff)), 1e-12);
    const double eps = 1e-7;
    double d1, d2;
    const double fd = (nn::Bpr(diff + eps, &d1) - nn::Bpr(diff - eps, &d2)) /
                      (2.0 * eps);
    EXPECT_NEAR(ddiff, fd, 1e-5);
  }
}

TEST(LossTest, SigmoidStableAtExtremes) {
  EXPECT_NEAR(nn::Sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(nn::Sigmoid(-1000.0), 0.0, 1e-12);
  EXPECT_NEAR(nn::Sigmoid(0.0), 0.5, 1e-12);
}

}  // namespace
}  // namespace taxorec
