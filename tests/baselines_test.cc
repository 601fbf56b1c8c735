// Parameterized smoke + sanity tests across all 15 registered models:
// every model must train on a small dataset, produce finite scores, beat
// (or at least not catastrophically lose to) chance, be deterministic
// given a seed, and train through the fault-tolerant loop exactly as
// through Fit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "baselines/recommender.h"
#include "core/trainer.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"

namespace taxorec {
namespace {

const DataSplit& SharedSplit() {
  static const DataSplit* split = [] {
    SyntheticConfig cfg;
    cfg.name = "baselines-test";
    cfg.seed = 77;
    cfg.num_users = 80;
    cfg.num_items = 120;
    cfg.num_tags = 18;
    cfg.num_roots = 3;
    cfg.mean_interactions_per_user = 20.0;
    return new DataSplit(TemporalSplit(GenerateSynthetic(cfg)));
  }();
  return *split;
}

ModelConfig TinyConfig() {
  ModelConfig cfg;
  cfg.dim = 16;
  cfg.tag_dim = 4;
  cfg.epochs = 4;
  cfg.batches_per_epoch = 4;
  cfg.batch_size = 128;
  cfg.lr = 0.05;
  cfg.gcn_layers = 2;
  cfg.taxo_rebuild_every = 2;
  cfg.seed = 5;
  return cfg;
}

class BaselineModelTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BaselineModelTest, TrainsAndScoresFinite) {
  const DataSplit& split = SharedSplit();
  auto model = MakeModel(GetParam(), TinyConfig());
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->name(), GetParam());
  Rng rng(1);
  model->Fit(split, &rng);
  std::vector<double> scores(split.num_items);
  for (uint32_t u : {0u, 7u, 42u}) {
    model->ScoreItems(u, std::span<double>(scores));
    for (double s : scores) EXPECT_TRUE(std::isfinite(s)) << GetParam();
  }
}

TEST_P(BaselineModelTest, BeatsUniformChanceOnValidation) {
  // Uniform-random ranking achieves Recall@20 ≈ 20/num_items ≈ 0.17 of a
  // single target; with several targets expected recall ≈ 20/120 ≈ 0.167.
  // Every real model must clear half of a weak threshold.
  const DataSplit& split = SharedSplit();
  auto model = MakeModel(GetParam(), TinyConfig());
  Rng rng(2);
  model->Fit(split, &rng);
  EvalOptions opts;
  opts.use_test = false;  // validation
  const EvalResult r = EvaluateRanking(*model, split, opts);
  EXPECT_GT(r.recall[1], 0.05) << GetParam() << " Recall@20";
}

TEST_P(BaselineModelTest, DeterministicGivenSeed) {
  const DataSplit& split = SharedSplit();
  std::vector<double> s1(split.num_items), s2(split.num_items);
  {
    auto model = MakeModel(GetParam(), TinyConfig());
    Rng rng(9);
    model->Fit(split, &rng);
    model->ScoreItems(3, std::span<double>(s1));
  }
  {
    auto model = MakeModel(GetParam(), TinyConfig());
    Rng rng(9);
    model->Fit(split, &rng);
    model->ScoreItems(3, std::span<double>(s2));
  }
  for (size_t i = 0; i < s1.size(); ++i) {
    EXPECT_DOUBLE_EQ(s1[i], s2[i]) << GetParam();
  }
}

// RunTrainLoop drives the same BeginFit / FitEpoch / EndFit sequence as
// Fit, with health scans and snapshots in between that must not change a
// bit of the trained model.
TEST_P(BaselineModelTest, TrainLoopMatchesFitBitForBit) {
  const DataSplit& split = SharedSplit();
  const ModelConfig cfg = TinyConfig();
  auto fitted = MakeModel(GetParam(), cfg);
  auto looped = MakeModel(GetParam(), cfg);
  Rng fit_rng(4), loop_rng(4);
  fitted->Fit(split, &fit_rng);
  auto result = RunTrainLoop(looped.get(), split, &loop_rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->epochs_run, cfg.epochs);
  std::vector<double> want(split.num_items), got(split.num_items);
  for (uint32_t u : {0u, 7u, 42u}) {
    fitted->ScoreItems(u, std::span<double>(want));
    looped->ScoreItems(u, std::span<double>(got));
    EXPECT_EQ(std::memcmp(want.data(), got.data(),
                          want.size() * sizeof(double)),
              0)
        << GetParam() << " user " << u;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, BaselineModelTest,
                         ::testing::ValuesIn(RegisteredModelNames()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return n;
                         });

TEST(FactoryTest, UnknownNameYieldsNull) {
  EXPECT_EQ(MakeModel("NotAModel", TinyConfig()), nullptr);
}

TEST(FactoryTest, FifteenModelsRegistered) {
  EXPECT_EQ(RegisteredModelNames().size(), 15u);
  EXPECT_EQ(RegisteredModelNames().back(), "TaxoRec");
}

}  // namespace
}  // namespace taxorec
