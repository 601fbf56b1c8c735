// Tests for ranking metrics and the full-ranking evaluator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_set>

#include "baselines/hyperml.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "core/taxorec_model.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "math/rng.h"
#include "math/simd.h"

namespace taxorec {
namespace {

TEST(MetricsTest, RecallAtK) {
  const std::vector<uint32_t> ranked = {5, 3, 9, 1, 7};
  const std::unordered_set<uint32_t> relevant = {3, 7, 100};
  EXPECT_DOUBLE_EQ(RecallAtK(ranked, relevant, 1), 0.0);
  EXPECT_DOUBLE_EQ(RecallAtK(ranked, relevant, 2), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(RecallAtK(ranked, relevant, 5), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(RecallAtK(ranked, relevant, 50), 2.0 / 3.0);
}

TEST(MetricsTest, NdcgAtK) {
  const std::vector<uint32_t> ranked = {5, 3, 9};
  const std::unordered_set<uint32_t> relevant = {3};
  // Hit at rank 2 (0-based 1): DCG = 1/log2(3); IDCG = 1/log2(2) = 1.
  EXPECT_NEAR(NdcgAtK(ranked, relevant, 10), 1.0 / std::log2(3.0), 1e-12);
  // Perfect ranking scores 1.
  const std::vector<uint32_t> perfect = {3, 5, 9};
  EXPECT_DOUBLE_EQ(NdcgAtK(perfect, relevant, 10), 1.0);
}

TEST(MetricsTest, NdcgMultipleRelevant) {
  const std::vector<uint32_t> ranked = {1, 2, 3, 4};
  const std::unordered_set<uint32_t> relevant = {1, 3};
  const double dcg = 1.0 / std::log2(2.0) + 1.0 / std::log2(4.0);
  const double idcg = 1.0 / std::log2(2.0) + 1.0 / std::log2(3.0);
  EXPECT_NEAR(NdcgAtK(ranked, relevant, 4), dcg / idcg, 1e-12);
}

TEST(MetricsTest, EmptyRelevantYieldsZero) {
  const std::vector<uint32_t> ranked = {1, 2};
  EXPECT_DOUBLE_EQ(RecallAtK(ranked, {}, 2), 0.0);
  EXPECT_DOUBLE_EQ(NdcgAtK(ranked, {}, 2), 0.0);
}

// The evaluator's TargetLookup overloads must agree bit-for-bit with the
// unordered_set reference, on both sides of the linear-scan/hash-set
// switchover and under randomized inputs.
TEST(MetricsTest, TargetLookupMatchesUnorderedSetOverloads) {
  Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    // Target counts straddling kLinearScanMaxTargets (0..2x).
    const size_t num_targets =
        rng.Uniform(2 * TargetLookup::kLinearScanMaxTargets + 1);
    std::unordered_set<uint32_t> set;
    while (set.size() < num_targets) {
      set.insert(static_cast<uint32_t>(rng.Uniform(50)));
    }
    const std::vector<uint32_t> list(set.begin(), set.end());
    const TargetLookup lookup(list);

    std::vector<uint32_t> ranked(rng.Uniform(40));
    for (auto& v : ranked) v = static_cast<uint32_t>(rng.Uniform(50));
    const int k = static_cast<int>(1 + rng.Uniform(30));

    EXPECT_EQ(RecallAtK(ranked, lookup, k), RecallAtK(ranked, set, k));
    EXPECT_EQ(NdcgAtK(ranked, lookup, k), NdcgAtK(ranked, set, k));
  }
}

// An "oracle" recommender that knows the held-out items.
class OracleModel : public Recommender {
 public:
  OracleModel(const DataSplit* split, bool use_test)
      : split_(split), use_test_(use_test) {}
  std::string name() const override { return "Oracle"; }
  void ScoreItems(uint32_t user, std::span<double> out) const override {
    for (auto& s : out) s = 0.0;
    const auto& targets =
        use_test_ ? split_->test_items[user] : split_->val_items[user];
    for (uint32_t v : targets) out[v] = 1.0;
  }

 private:
  const DataSplit* split_;
  bool use_test_;
};

DataSplit MakeSplit() {
  SyntheticConfig cfg;
  cfg.num_users = 40;
  cfg.num_items = 60;
  cfg.num_tags = 12;
  cfg.seed = 3;
  return TemporalSplit(GenerateSynthetic(cfg));
}

TEST(EvaluatorTest, OracleGetsPerfectScores) {
  const DataSplit split = MakeSplit();
  OracleModel oracle(&split, /*use_test=*/true);
  const EvalResult r = EvaluateRanking(oracle, split);
  ASSERT_GT(r.num_eval_users, 0u);
  // Recall@20 should be 1 whenever a user has <= 20 test items (always true
  // at this scale); NDCG likewise.
  EXPECT_NEAR(r.recall[1], 1.0, 1e-9);
  EXPECT_NEAR(r.ndcg[1], 1.0, 1e-9);
}

// Scores train items highest, test items second; anything else zero. With
// masking, the test items win; without, train items would crowd the top-K.
class TrainOverTestModel : public Recommender {
 public:
  explicit TrainOverTestModel(const DataSplit* split) : split_(split) {}
  std::string name() const override { return "TrainOverTest"; }
  void ScoreItems(uint32_t user, std::span<double> out) const override {
    for (auto& s : out) s = 0.0;
    for (uint32_t v : split_->test_items[user]) out[v] = 1.0;
    for (uint32_t v : split_->train.RowCols(user)) out[v] = 2.0;
  }

 private:
  const DataSplit* split_;
};

TEST(EvaluatorTest, TrainItemsAreMasked) {
  // User 0: 15 train items (enough to fill top-10 if unmasked), 2 test.
  DataSplit split;
  split.num_users = 1;
  split.num_items = 30;
  split.num_tags = 1;
  std::vector<std::pair<uint32_t, uint32_t>> train_edges;
  for (uint32_t v = 0; v < 15; ++v) train_edges.emplace_back(0, v);
  split.train = CsrMatrix::FromPairs(1, 30, train_edges);
  split.item_tags = CsrMatrix::FromPairs(30, 1, {});
  split.val_items.resize(1);
  split.test_items.resize(1);
  split.test_items[0] = {20, 25};
  TrainOverTestModel model(&split);
  const EvalResult r = EvaluateRanking(model, split);
  // Masked evaluation: test items rank 1-2 → perfect recall/NDCG@10.
  EXPECT_NEAR(r.recall[0], 1.0, 1e-12);
  EXPECT_NEAR(r.ndcg[0], 1.0, 1e-12);
}

// Single-user model that scores train items highest, then val, then test;
// anything else zero. It declares one-dimensional dot rows (user row [1],
// item rows [score]), so evaluation sweeps the catalogue in scoring blocks
// and the exclusion list must reach the kernel sorted.
class SeenOverTestModel : public Recommender {
 public:
  explicit SeenOverTestModel(const DataSplit& split)
      : users_(1, 1), items_(split.num_items, 1) {
    users_.at(0, 0) = 1.0;
    for (uint32_t v : split.test_items[0]) items_.at(v, 0) = 2.0;
    for (uint32_t v : split.val_items[0]) items_.at(v, 0) = 3.0;
    for (uint32_t v : split.train.RowCols(0)) items_.at(v, 0) = 4.0;
  }
  std::string name() const override { return "SeenOverTest"; }

 private:
  ScoringSnapshot scoring_rows() const override {
    return {ScoreKernel::kDot, &users_, &items_};
  }

  Matrix users_;
  Matrix items_;
};

TEST(EvaluatorTest, ValItemsAreMaskedOnTheTestProtocol) {
  // A catalogue of several scoring blocks (kServeItemBlock items each); the
  // val items interleave with the train items across blocks and are stored
  // in descending id order (val_items keeps timestamp order, not id order).
  DataSplit split;
  split.num_users = 1;
  split.num_items = 5000;
  split.num_tags = 1;
  split.train = CsrMatrix::FromPairs(1, 5000, {{0, 5}, {0, 2500}, {0, 4800}});
  split.item_tags = CsrMatrix::FromPairs(5000, 1, {});
  split.val_items = {{4900, 3000, 100}};
  split.test_items = {{1000, 4000}};
  SeenOverTestModel model(split);

  // Test protocol: train and val are both masked, so the two test items
  // rank first.
  EvalOptions opts;
  opts.ks = {2, 10};
  const EvalResult test = EvaluateRanking(model, split, opts);
  ASSERT_EQ(test.num_eval_users, 1u);
  EXPECT_EQ(test.recall[0], 1.0);
  EXPECT_EQ(test.ndcg[0], 1.0);

  // Val protocol: only train is masked and the val items are the targets;
  // they outscore the test items, so they fill the top 3.
  opts.ks = {3, 10};
  opts.use_test = false;
  const EvalResult val = EvaluateRanking(model, split, opts);
  ASSERT_EQ(val.num_eval_users, 1u);
  EXPECT_EQ(val.recall[0], 1.0);
  EXPECT_EQ(val.ndcg[0], 1.0);
}

TEST(EvaluatorTest, ValidationModeUsesValItems) {
  const DataSplit split = MakeSplit();
  OracleModel val_oracle(&split, /*use_test=*/false);
  EvalOptions opts;
  opts.use_test = false;
  const EvalResult r = EvaluateRanking(val_oracle, split, opts);
  EXPECT_NEAR(r.recall[1], 1.0, 1e-9);
}

TEST(EvaluatorTest, PerUserVectorsSizedToEvalUsers) {
  const DataSplit split = MakeSplit();
  OracleModel oracle(&split, true);
  const EvalResult r = EvaluateRanking(oracle, split);
  EXPECT_EQ(r.per_user_recall.size(), r.num_eval_users);
  EXPECT_EQ(r.per_user_ndcg.size(), r.num_eval_users);
  EXPECT_EQ(r.primary_k, r.ks[0]);
}

// Oracle that also emits NaN for half the non-target items — a partially
// diverged model. NaN used to poison the ranking comparator (strict weak
// ordering violation, UB in partial_sort); sanitized to -inf it must rank
// last and leave the oracle's perfect metrics intact.
class NanOracleModel : public Recommender {
 public:
  explicit NanOracleModel(const DataSplit* split) : split_(split) {}
  std::string name() const override { return "NanOracle"; }
  void ScoreItems(uint32_t user, std::span<double> out) const override {
    for (size_t v = 0; v < out.size(); ++v) {
      out[v] = (v % 2 == 0) ? std::numeric_limits<double>::quiet_NaN() : 0.0;
    }
    for (uint32_t v : split_->test_items[user]) out[v] = 1.0;
  }

 private:
  const DataSplit* split_;
};

TEST(EvaluatorTest, NanScoresRankLastInsteadOfPoisoningTheSort) {
  const DataSplit split = MakeSplit();
  NanOracleModel model(&split);
  const EvalResult r = EvaluateRanking(model, split);
  ASSERT_GT(r.num_eval_users, 0u);
  EXPECT_NEAR(r.recall[1], 1.0, 1e-9);
  EXPECT_NEAR(r.ndcg[1], 1.0, 1e-9);
}

// Independent re-statement of EvaluateRanking's metrics: score every item
// with the live model, rank on (score desc, id asc) after mapping non-finite
// and excluded scores to -Inf, and average over evaluated users in
// ascending id order.
EvalResult ScoreAndSortMetrics(const Recommender& model,
                               const DataSplit& split, const EvalOptions& opts) {
  EvalResult r;
  r.recall.assign(opts.ks.size(), 0.0);
  r.ndcg.assign(opts.ks.size(), 0.0);
  const int max_k = *std::max_element(opts.ks.begin(), opts.ks.end());
  std::vector<double> scores(split.num_items);
  for (uint32_t u = 0; u < split.num_users; ++u) {
    const auto& targets =
        opts.use_test ? split.test_items[u] : split.val_items[u];
    if (targets.empty()) continue;
    model.ScoreItems(u, std::span<double>(scores));
    for (double& x : scores) {
      if (!std::isfinite(x)) x = -std::numeric_limits<double>::infinity();
    }
    for (uint32_t v : split.train.RowCols(u)) {
      scores[v] = -std::numeric_limits<double>::infinity();
    }
    if (opts.use_test) {
      for (uint32_t v : split.val_items[u]) {
        scores[v] = -std::numeric_limits<double>::infinity();
      }
    }
    std::vector<uint32_t> ranked(split.num_items);
    std::iota(ranked.begin(), ranked.end(), 0u);
    std::sort(ranked.begin(), ranked.end(), [&](uint32_t a, uint32_t b) {
      if (scores[a] != scores[b]) return scores[a] > scores[b];
      return a < b;
    });
    ranked.resize(std::min<size_t>(ranked.size(), max_k));
    const std::unordered_set<uint32_t> relevant(targets.begin(),
                                                targets.end());
    for (size_t i = 0; i < opts.ks.size(); ++i) {
      r.recall[i] += RecallAtK(ranked, relevant, opts.ks[i]);
      r.ndcg[i] += NdcgAtK(ranked, relevant, opts.ks[i]);
    }
    r.per_user_recall.push_back(RecallAtK(ranked, relevant, opts.ks[0]));
    r.per_user_ndcg.push_back(NdcgAtK(ranked, relevant, opts.ks[0]));
    ++r.num_eval_users;
  }
  for (size_t i = 0; i < opts.ks.size(); ++i) {
    r.recall[i] /= static_cast<double>(r.num_eval_users);
    r.ndcg[i] /= static_cast<double>(r.num_eval_users);
  }
  return r;
}

// Trained native models over a catalogue of several kServeItemBlock
// blocks, so EvaluateRanking's grouped sweeps run with the pruning cutoffs
// set: its metrics, aggregate and per user, must equal the score-and-sort
// oracle's bit for bit on both protocols, for a Lorentz and a Euclidean
// TaxoRec (two-channel bounds on trained embeddings) and a Lorentz model
// without a tag channel. Pool chunking decides group membership, so the
// evaluation runs at 1 and 4 threads, on both SIMD backends.
TEST(EvaluatorTest, PrunedSweepsMatchScoreAndSortOracle) {
  SyntheticConfig data;
  data.num_users = 120;
  data.num_items = 900;
  data.num_tags = 24;
  data.seed = 19;
  const DataSplit split = TemporalSplit(GenerateSynthetic(data));
  ModelConfig cfg;
  cfg.dim = 16;
  cfg.tag_dim = 4;
  cfg.epochs = 2;
  cfg.batches_per_epoch = 4;
  cfg.batch_size = 128;
  cfg.gcn_layers = 2;
  TaxoRecModel taxorec(cfg, TaxoRecOptions{});
  TaxoRecOptions euclid_opts;
  euclid_opts.hyperbolic = false;
  TaxoRecModel taxorec_euclid(cfg, euclid_opts);
  HyperMl hyperml(cfg);
  const int saved_threads = GetNumThreads();
  for (Recommender* model : {static_cast<Recommender*>(&taxorec),
                             static_cast<Recommender*>(&taxorec_euclid),
                             static_cast<Recommender*>(&hyperml)}) {
    Rng rng(7);
    model->Fit(split, &rng);
    for (const bool use_test : {true, false}) {
      EvalOptions opts;
      opts.ks = {10, 20};
      opts.use_test = use_test;
      const EvalResult want = ScoreAndSortMetrics(*model, split, opts);
      ASSERT_GT(want.num_eval_users, 0u);
      for (const bool portable : {false, true}) {
        for (const int threads : {1, 4}) {
          simd::CapLevelForTest(portable ? simd::Level::kPortable
                                         : simd::Level::kAvx512);
          SetNumThreads(threads);
          Counter* pruned = MetricsRegistry::Instance().GetCounter(
              "taxorec.rank.items_pruned");
          const uint64_t pruned_before = pruned->value();
          const EvalResult got = EvaluateRanking(*model, split, opts);
          simd::CapLevelForTest(simd::Level::kAvx512);
          SetNumThreads(saved_threads);
          SCOPED_TRACE(::testing::Message()
                       << model->name() << " use_test " << use_test
                       << " portable " << portable << " threads " << threads);
          EXPECT_GT(pruned->value(), pruned_before);
          EXPECT_EQ(got.num_eval_users, want.num_eval_users);
          EXPECT_EQ(got.recall, want.recall);
          EXPECT_EQ(got.ndcg, want.ndcg);
          EXPECT_EQ(got.per_user_recall, want.per_user_recall);
          EXPECT_EQ(got.per_user_ndcg, want.per_user_ndcg);
        }
      }
    }
  }
}

}  // namespace
}  // namespace taxorec
