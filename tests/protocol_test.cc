// Tests for the multi-seed protocol and its validation-based grid
// selection, using a deterministic fake model whose quality is directly
// controlled by a config knob.
#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "eval/protocol.h"

namespace taxorec {
namespace {

DataSplit MakeSplit() {
  SyntheticConfig cfg;
  cfg.seed = 17;
  cfg.num_users = 40;
  cfg.num_items = 60;
  cfg.num_tags = 10;
  return TemporalSplit(GenerateSynthetic(cfg));
}

// A fake model: with lr >= 0.5 it is an oracle on validation+test items;
// below that it scores everything 0 (useless). Lets tests observe which
// config the grid selection picked.
class KnobModel : public Recommender {
 public:
  explicit KnobModel(const ModelConfig& cfg) : good_(cfg.lr >= 0.5) {}
  std::string name() const override { return "Knob"; }
  void BeginFit(const DataSplit& split, Rng*) override { split_ = &split; }
  void ScoreItems(uint32_t user, std::span<double> out) const override {
    for (auto& s : out) s = 0.0;
    if (!good_) return;
    for (uint32_t v : split_->val_items[user]) out[v] = 1.0;
    for (uint32_t v : split_->test_items[user]) out[v] = 1.0;
  }

 private:
  bool good_;
  const DataSplit* split_ = nullptr;
};

TEST(ProtocolTest, GridSelectsTheBetterConfigOnValidation) {
  const DataSplit split = MakeSplit();
  ModelConfig bad;
  bad.lr = 0.01;
  ModelConfig good;
  good.lr = 0.9;
  ProtocolOptions opts;
  opts.num_seeds = 1;
  ModelConfig selected;
  const auto r = RunProtocolGrid(
      [](const ModelConfig& c) { return std::make_unique<KnobModel>(c); },
      "Knob", {bad, good}, split, opts, &selected);
  EXPECT_DOUBLE_EQ(selected.lr, 0.9);
  EXPECT_GT(r.recall_mean[1], 0.9);  // oracle-level test recall
}

TEST(ProtocolTest, SingleConfigSkipsSelection) {
  // With one candidate there is no selection pass: the config is used
  // verbatim even when a better one would exist.
  const DataSplit split = MakeSplit();
  ModelConfig only;
  only.lr = 0.01;  // the "bad" knob value, but the only candidate
  ProtocolOptions opts;
  opts.num_seeds = 1;
  ModelConfig selected;
  const auto oracle = RunProtocolGrid(
      [](const ModelConfig& c) { return std::make_unique<KnobModel>(c); },
      "Knob", {only}, split, opts, &selected);
  EXPECT_DOUBLE_EQ(selected.lr, 0.01);
  // The bad config scores everything equally (ties) — far from the
  // oracle-level recall the good config reaches.
  EXPECT_LT(oracle.recall_mean[1], 0.9);
}

TEST(ProtocolTest, SeedsProduceStdDev) {
  // A real (stochastic) model run with 2 seeds should usually report a
  // non-zero std; the fields must at least be populated and non-negative.
  const DataSplit split = MakeSplit();
  ModelConfig cfg;
  cfg.dim = 8;
  cfg.tag_dim = 4;
  cfg.epochs = 2;
  cfg.batches_per_epoch = 2;
  cfg.batch_size = 64;
  ProtocolOptions opts;
  opts.num_seeds = 2;
  const auto r = RunModelProtocol("CML", cfg, split, opts);
  ASSERT_EQ(r.recall_mean.size(), 2u);
  ASSERT_EQ(r.recall_std.size(), 2u);
  for (double s : r.recall_std) EXPECT_GE(s, 0.0);
  EXPECT_GT(r.train_seconds, 0.0);
}

TEST(ProtocolTest, SeedChangesAreDeterministicallyApplied) {
  // Same protocol twice must produce identical numbers (the whole pipeline
  // is seeded).
  const DataSplit split = MakeSplit();
  ModelConfig cfg;
  cfg.dim = 8;
  cfg.tag_dim = 4;
  cfg.epochs = 2;
  cfg.batches_per_epoch = 2;
  cfg.batch_size = 64;
  ProtocolOptions opts;
  opts.num_seeds = 2;
  const auto a = RunModelProtocol("BPRMF", cfg, split, opts);
  const auto b = RunModelProtocol("BPRMF", cfg, split, opts);
  for (size_t i = 0; i < a.recall_mean.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.recall_mean[i], b.recall_mean[i]);
    EXPECT_DOUBLE_EQ(a.ndcg_mean[i], b.ndcg_mean[i]);
  }
}

}  // namespace
}  // namespace taxorec
