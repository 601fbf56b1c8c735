// Unit tests for the TaxoRec core model: the personalized weight α_u
// (Eq. 16), ablation variants, taxonomy access, user-tag distances, the
// Euclidean/hyperbolic mode switches, the step workspace (no
// embedding-sized allocation per step, in AGCN and LightGCN too; re-sized
// on restore) and the tag warm-up step (bit for bit the call-per-term
// composition).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/heap_stats.h"
#include "common/parallel.h"
#include "core/taxorec_model.h"
#include "core/trainer.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "hyperbolic/poincare.h"
#include "math/vec_ops.h"
#include "nn/losses.h"

namespace taxorec {
namespace {

ModelConfig TinyConfig() {
  ModelConfig cfg;
  cfg.dim = 16;
  cfg.tag_dim = 4;
  cfg.epochs = 3;
  cfg.batches_per_epoch = 4;
  cfg.batch_size = 128;
  cfg.gcn_layers = 2;
  cfg.taxo_rebuild_every = 2;
  return cfg;
}

DataSplit SmallSplit() {
  SyntheticConfig cfg;
  cfg.seed = 11;
  cfg.num_users = 60;
  cfg.num_items = 90;
  cfg.num_tags = 15;
  cfg.num_roots = 3;
  return TemporalSplit(GenerateSynthetic(cfg));
}

// Hand-built split for exact α_u checks.
DataSplit HandSplit() {
  DataSplit split;
  split.num_users = 2;
  split.num_items = 3;
  split.num_tags = 4;
  // User 0 → items 0,1; user 1 → item 2.
  split.train = CsrMatrix::FromPairs(2, 3, {{0, 0}, {0, 1}, {1, 2}});
  // Item 0: tags {0,1}; item 1: tags {1,2}; item 2: tags {3}.
  split.item_tags =
      CsrMatrix::FromPairs(3, 4, {{0, 0}, {0, 1}, {1, 1}, {1, 2}, {2, 3}});
  split.val_items.resize(2);
  split.test_items.resize(2);
  split.test_items[0] = {2};
  split.test_items[1] = {0};
  return split;
}

// The warm-up step composed call per term: two Distance and four
// DistanceGradX calls, each reducing its own terms, then the RSGD steps.
double ReferenceWarmUpStep(Matrix* tags, uint32_t t1, uint32_t t2,
                           uint32_t t3, double margin, double lr,
                           double grad_clip) {
  const double dp = poincare::Distance(tags->row(t1), tags->row(t2));
  const double dq = poincare::Distance(tags->row(t1), tags->row(t3));
  double dpos, dneg;
  const double hinge = nn::HingeTriplet(margin, dp, dq, &dpos, &dneg);
  if (hinge <= 0.0) return hinge;
  const size_t dt = tags->cols();
  std::vector<double> g1(dt, 0.0), g2(dt, 0.0), g3(dt, 0.0);
  poincare::DistanceGradX(tags->row(t1), tags->row(t2), dpos, vec::Span(g1));
  poincare::DistanceGradX(tags->row(t2), tags->row(t1), dpos, vec::Span(g2));
  poincare::DistanceGradX(tags->row(t1), tags->row(t3), dneg, vec::Span(g1));
  poincare::DistanceGradX(tags->row(t3), tags->row(t1), dneg, vec::Span(g3));
  for (auto* g : {&g1, &g2, &g3}) {
    if (grad_clip > 0.0) vec::ClipNorm(vec::Span(*g), grad_clip);
  }
  poincare::RsgdStep(tags->row(t1), vec::Span(g1), lr);
  poincare::RsgdStep(tags->row(t2), vec::Span(g2), lr);
  poincare::RsgdStep(tags->row(t3), vec::Span(g3), lr);
  return hinge;
}

// The warm-up step computes each pair term once and must land on the same
// bits as the call-per-term composition, including steps whose random tag
// t3 is t1 or t2 (the draw gives up after 16 tries), steps with inactive
// hinges, and both clip settings.
TEST(TaxoRecModelTest, TagWarmUpStepMatchesCallPerTermStepBitForBit) {
  Rng rng(21);
  constexpr size_t kTags = 12, kDim = 12;
  Matrix got(kTags, kDim);
  for (size_t t = 0; t < kTags; ++t) {
    poincare::RandomPoint(&rng, 0.9, got.row(t));
  }
  Matrix want = got;
  std::vector<double> scratch(3 * kDim);
  for (int step = 0; step < 3000; ++step) {
    const uint32_t t1 = static_cast<uint32_t>(rng.Uniform(kTags));
    uint32_t t2 = static_cast<uint32_t>(rng.Uniform(kTags));
    if (t2 == t1) t2 = (t1 + 1) % kTags;
    uint32_t t3 = static_cast<uint32_t>(rng.Uniform(kTags));
    if (step % 7 == 0) t3 = t1;
    if (step % 11 == 0) t3 = t2;
    const double margin = step % 5 == 0 ? -1.0 : 0.5;  // some inactive
    const double clip = step % 2 == 0 ? 1.0 : 0.0;
    const double want_hinge =
        ReferenceWarmUpStep(&want, t1, t2, t3, margin, 0.05, clip);
    const double got_hinge =
        TagWarmUpStep(&got, t1, t2, t3, margin, 0.05, clip, scratch);
    ASSERT_EQ(std::memcmp(&got_hinge, &want_hinge, sizeof(double)), 0)
        << "step " << step;
    ASSERT_EQ(std::memcmp(got.flat().data(), want.flat().data(),
                          kTags * kDim * sizeof(double)),
              0)
        << "step " << step << " (t1 " << t1 << ", t2 " << t2 << ", t3 "
        << t3 << ")";
  }
}

// A training step reuses the model's step workspace and its channels'
// buffers: once the first epoch has sized them, an epoch without a taxonomy
// rebuild allocates less than the smallest embedding matrix, users ×
// tag_dim, at any moment, in both geometries. The Euclidean GCN baselines
// AGCN, LightGCN and NGCF keep their batch buffers the same way.
TEST(TaxoRecModelTest, EpochAfterTheFirstAllocatesNoEmbeddingMatrix) {
  if (!HeapStatsEnabled()) {
    GTEST_SKIP() << "tagged allocator compiled out (sanitizer build)";
  }
  const int saved_threads = GetNumThreads();
  SetNumThreads(1);  // HeapScope tags the calling thread's allocations
  const DataSplit split = SmallSplit();
  const ModelConfig cfg = TinyConfig();  // rebuilds at even epochs only
  const int64_t users_by_dt = static_cast<int64_t>(
      split.num_users * cfg.tag_dim * sizeof(double));
  std::vector<std::unique_ptr<Recommender>> models;
  models.push_back(std::make_unique<TaxoRecModel>(cfg, TaxoRecOptions{}));
  models.push_back(MakeAblationVariant("CML+Agg", cfg));
  models.push_back(MakeModel("AGCN", cfg));
  models.push_back(MakeModel("LightGCN", cfg));
  models.push_back(MakeModel("NGCF", cfg));
  for (const auto& model : models) {
    Rng rng(3);
    model->BeginFit(split, &rng);
    model->FitEpoch(split, 0, &rng);
    const std::string tag_name = "test.fit_epoch." + model->name();
    const int tag = RegisterHeapSubsystem(tag_name);
    ASSERT_NE(tag, 0) << "heap subsystem table full";
    {
      HeapScope scope(tag);
      model->FitEpoch(split, 1, &rng);
    }
    int64_t peak = 0;
    for (const auto& s : HeapStatsSnapshot()) {
      if (s.name == tag_name) peak = s.peak_bytes;
    }
    EXPECT_LT(peak, users_by_dt) << model->name();
  }
  SetNumThreads(saved_threads);
}

// A model that trained on one split and is then restored onto another,
// of other shapes, trains on exactly as a fresh model restored onto it:
// the step workspace is re-sized and nothing of the first split carries
// over.
TEST(TaxoRecModelTest, RestoreOntoAnotherSplitMatchesAFreshModel) {
  const DataSplit first = SmallSplit();
  SyntheticConfig sc;
  sc.seed = 12;
  sc.num_users = 75;
  sc.num_items = 110;
  sc.num_tags = 18;
  sc.num_roots = 3;
  const DataSplit second = TemporalSplit(GenerateSynthetic(sc));
  const ModelConfig cfg = TinyConfig();
  Rng init_rng(5);
  TaxoRecModel source(cfg, TaxoRecOptions{});
  source.BeginFit(second, &init_rng);
  const Checkpoint ckpt = source.SaveCheckpoint();

  TaxoRecModel reused(cfg, TaxoRecOptions{});
  Rng first_rng(7);
  reused.BeginFit(first, &first_rng);
  reused.FitEpoch(first, 0, &first_rng);
  ASSERT_TRUE(reused.RestoreCheckpoint(ckpt, second).ok());
  TaxoRecModel fresh(cfg, TaxoRecOptions{});
  ASSERT_TRUE(fresh.RestoreCheckpoint(ckpt, second).ok());
  Rng rng_a(9), rng_b(9);
  reused.FitEpoch(second, 1, &rng_a);
  fresh.FitEpoch(second, 1, &rng_b);

  const Checkpoint got = reused.SaveCheckpoint();
  const Checkpoint want = fresh.SaveCheckpoint();
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [name, m] : want.entries()) {
    const Matrix* g = got.Get(name);
    ASSERT_NE(g, nullptr) << name;
    ASSERT_EQ(g->rows(), m.rows()) << name;
    ASSERT_EQ(g->cols(), m.cols()) << name;
    EXPECT_EQ(std::memcmp(g->flat().data(), m.flat().data(),
                          m.flat().size() * sizeof(double)),
              0)
        << name;
  }
}

TEST(TaxoRecModelTest, AlphaMatchesEq16) {
  const DataSplit split = HandSplit();
  ModelConfig cfg = TinyConfig();
  cfg.dim = 8;
  cfg.tag_dim = 4;
  cfg.epochs = 1;
  cfg.batches_per_epoch = 1;
  cfg.batch_size = 8;
  cfg.alpha_scale = 1.0;  // raw Eq. 16 values, no channel rebalancing
  TaxoRecOptions opts;
  TaxoRecModel model(cfg, opts);
  Rng rng(1);
  model.Fit(split, &rng);
  // User 0: items {0,1}; tag slots = 2 + 2 = 4; distinct tags = {0,1,2} → 3.
  // α = 4 / (2 * 3) = 2/3.
  EXPECT_NEAR(model.alpha(0), 2.0 / 3.0, 1e-12);
  // User 1: 1 item with 1 tag → α = 1 / (1*1) = 1.
  EXPECT_NEAR(model.alpha(1), 1.0, 1e-12);
  // The rebalancing scale multiplies and saturates at 1.
  ModelConfig cfg2 = cfg;
  cfg2.alpha_scale = 1.2;
  TaxoRecModel model2(cfg2, opts);
  Rng rng2(1);
  model2.Fit(split, &rng2);
  EXPECT_NEAR(model2.alpha(0), 0.8, 1e-12);
  EXPECT_NEAR(model2.alpha(1), 1.0, 1e-12);
}

TEST(TaxoRecModelTest, AlphaInUnitInterval) {
  const DataSplit split = SmallSplit();
  TaxoRecModel model(TinyConfig(), TaxoRecOptions{});
  Rng rng(2);
  model.Fit(split, &rng);
  for (uint32_t u = 0; u < split.num_users; ++u) {
    EXPECT_GE(model.alpha(u), 0.0);
    EXPECT_LE(model.alpha(u), 1.0);
  }
}

TEST(TaxoRecModelTest, TaxonomyAvailableAfterFit) {
  const DataSplit split = SmallSplit();
  TaxoRecModel model(TinyConfig(), TaxoRecOptions{});
  EXPECT_EQ(model.taxonomy(), nullptr);
  Rng rng(3);
  model.Fit(split, &rng);
  ASSERT_NE(model.taxonomy(), nullptr);
  EXPECT_EQ(model.taxonomy()->node(0).member_tags.size(), split.num_tags);
}

TEST(TaxoRecModelTest, TagEmbeddingsStayInBall) {
  const DataSplit split = SmallSplit();
  TaxoRecModel model(TinyConfig(), TaxoRecOptions{});
  Rng rng(4);
  model.Fit(split, &rng);
  const Matrix& tags = model.tag_embeddings();
  for (size_t t = 0; t < tags.rows(); ++t) {
    double sq = 0.0;
    for (double v : tags.row(t)) sq += v * v;
    EXPECT_LT(std::sqrt(sq), 1.0);
  }
}

TEST(TaxoRecModelTest, UserTagDistancesFiniteAndSized) {
  const DataSplit split = SmallSplit();
  TaxoRecModel model(TinyConfig(), TaxoRecOptions{});
  Rng rng(5);
  model.Fit(split, &rng);
  const auto dist = model.UserTagDistances(0);
  ASSERT_EQ(dist.size(), split.num_tags);
  for (double d : dist) {
    EXPECT_TRUE(std::isfinite(d));
    EXPECT_GE(d, 0.0);
  }
}

TEST(TaxoRecModelTest, EuclideanModeTrains) {
  const DataSplit split = SmallSplit();
  TaxoRecOptions opts;
  opts.hyperbolic = false;
  opts.lambda = 0.0;
  opts.display_name = "CML+Agg";
  TaxoRecModel model(TinyConfig(), opts);
  Rng rng(6);
  model.Fit(split, &rng);
  std::vector<double> scores(split.num_items);
  model.ScoreItems(0, std::span<double>(scores));
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
  EXPECT_EQ(model.taxonomy(), nullptr);  // No taxonomy in Euclidean mode.
}

TEST(TrainerTest, AblationVariantsResolve) {
  const ModelConfig cfg = TinyConfig();
  // "Hyper+CML" resolves to the HyperML baseline, as in the paper's
  // Table III rows; the others report their ablation name verbatim.
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"CML", "CML"},
      {"CML+Agg", "CML+Agg"},
      {"Hyper+CML", "HyperML"},
      {"Hyper+CML+Agg", "Hyper+CML+Agg"},
      {"TaxoRec", "TaxoRec"}};
  for (const auto& [variant, display] : expected) {
    auto model = MakeAblationVariant(variant, cfg);
    ASSERT_NE(model, nullptr) << variant;
    EXPECT_EQ(model->name(), display);
  }
  EXPECT_EQ(MakeAblationVariant("bogus", cfg), nullptr);
}

TEST(TrainerTest, FitThenEvaluateRuns) {
  const DataSplit split = SmallSplit();
  auto model = MakeAblationVariant("TaxoRec", TinyConfig());
  Rng rng(8);
  model->Fit(split, &rng);
  const EvalResult r = EvaluateRanking(*model, split);
  EXPECT_GT(r.num_eval_users, 0u);
  EXPECT_GE(r.recall[0], 0.0);
}

TEST(TaxoRecModelTest, FixedTaxonomyIsUsedVerbatim) {
  // Supplying a pre-existing taxonomy (the paper's future-work extension)
  // must skip automated construction and expose the given tree.
  SyntheticConfig scfg;
  scfg.seed = 11;
  scfg.num_users = 60;
  scfg.num_items = 90;
  scfg.num_tags = 15;
  scfg.num_roots = 3;
  const Dataset data = GenerateSynthetic(scfg);
  const DataSplit split = TemporalSplit(data);
  const Taxonomy given = TaxonomyFromParents(data.tag_parent);
  TaxoRecOptions opts;
  opts.fixed_taxonomy = &given;
  TaxoRecModel model(TinyConfig(), opts);
  Rng rng(12);
  model.Fit(split, &rng);
  ASSERT_NE(model.taxonomy(), nullptr);
  EXPECT_EQ(model.taxonomy()->num_nodes(), given.num_nodes());
  std::vector<double> scores(split.num_items);
  model.ScoreItems(0, std::span<double>(scores));
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST(TaxoRecModelTest, LambdaZeroAndPositiveBothTrain) {
  const DataSplit split = SmallSplit();
  for (double lambda : {0.0, 0.5}) {
    TaxoRecOptions opts;
    opts.lambda = lambda;
    TaxoRecModel model(TinyConfig(), opts);
    Rng rng(9);
    model.Fit(split, &rng);
    std::vector<double> scores(split.num_items);
    model.ScoreItems(0, std::span<double>(scores));
    for (double s : scores) EXPECT_TRUE(std::isfinite(s)) << lambda;
  }
}

}  // namespace
}  // namespace taxorec
