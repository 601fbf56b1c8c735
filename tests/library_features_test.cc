// Tests for the library-surface features around the core pipeline: the
// top-K recommendation API, taxonomy export, dataset statistics, and model
// checkpointing (incl. corruption handling).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <unordered_set>

#include "common/checkpoint.h"
#include "core/taxorec_model.h"
#include "data/split.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/recommend.h"
#include "taxonomy/export.h"

namespace taxorec {
namespace {

struct Fixture {
  Dataset data;
  DataSplit split;
  Fixture() {
    SyntheticConfig cfg;
    cfg.seed = 31;
    cfg.num_users = 50;
    cfg.num_items = 80;
    cfg.num_tags = 12;
    data = GenerateSynthetic(cfg);
    split = TemporalSplit(data);
  }
};

ModelConfig TinyConfig() {
  ModelConfig cfg;
  cfg.dim = 16;
  cfg.tag_dim = 4;
  cfg.epochs = 3;
  cfg.batches_per_epoch = 3;
  cfg.batch_size = 64;
  cfg.gcn_layers = 2;
  return cfg;
}

TEST(RecommendTest, TopKExcludesTrainAndIsSorted) {
  Fixture fx;
  TaxoRecModel model(TinyConfig(), TaxoRecOptions{});
  Rng rng(1);
  model.Fit(fx.split, &rng);
  const auto recs = RecommendTopK(model, fx.split, 0, {.k = 10});
  ASSERT_EQ(recs.size(), 10u);
  for (size_t i = 1; i < recs.size(); ++i) {
    EXPECT_GE(recs[i - 1].score, recs[i].score);
  }
  for (const auto& r : recs) {
    EXPECT_FALSE(fx.split.train.Contains(0, r.item));
  }
}

TEST(RecommendTest, AllUsersShapesAndCoverage) {
  Fixture fx;
  TaxoRecModel model(TinyConfig(), TaxoRecOptions{});
  Rng rng(2);
  model.Fit(fx.split, &rng);
  const auto lists = RecommendAllUsers(model, fx.split, {.k = 5});
  ASSERT_EQ(lists.size(), fx.split.num_users);
  for (const auto& l : lists) EXPECT_EQ(l.size(), 5u);
  std::unordered_set<uint32_t> covered;
  for (const auto& l : lists) covered.insert(l.begin(), l.end());
  EXPECT_GT(covered.size(), 0u);
  EXPECT_LE(covered.size(), fx.split.num_items);
}

TEST(ExportTest, DotContainsNodesAndEdges) {
  Taxonomy taxo({0, 1, 2});
  taxo.AddNode(0, {1, 2}, {0.9, 0.8});
  const auto dot = TaxonomyToDot(taxo, {"root_tag", "a", "b"});
  EXPECT_NE(dot.find("digraph taxonomy"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("root_tag"), std::string::npos);
}

TEST(ExportTest, JsonIsWellFormedish) {
  Taxonomy taxo({0, 1, 2});
  taxo.AddNode(0, {1}, {0.9});
  taxo.AddNode(0, {2}, {0.9});
  const auto json = TaxonomyToJson(taxo, {"x", "y\"q", "z"});
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"retained\""), std::string::npos);
  EXPECT_NE(json.find("\\\""), std::string::npos);  // escaped quote in y"q
  // Balanced braces.
  int depth = 0;
  bool in_string = false;
  char prev = 0;
  for (char c : json) {
    if (c == '"' && prev != '\\') in_string = !in_string;
    if (!in_string) {
      if (c == '{') ++depth;
      if (c == '}') --depth;
      EXPECT_GE(depth, 0);
    }
    prev = c;
  }
  EXPECT_EQ(depth, 0);
}

TEST(StatsTest, ComputeStatsBasics) {
  Fixture fx;
  const DatasetStats s = ComputeStats(fx.data);
  EXPECT_EQ(s.num_users, fx.data.num_users);
  EXPECT_EQ(s.num_interactions, fx.data.interactions.size());
  EXPECT_NEAR(s.density, fx.data.Density(), 1e-12);
  EXPECT_GT(s.mean_interactions_per_user, 5.0);
  EXPECT_GT(s.mean_tags_per_item, 0.9);
  EXPECT_GT(s.item_popularity_gini, 0.0);
  EXPECT_LT(s.item_popularity_gini, 1.0);
  EXPECT_GE(s.max_tag_depth, 2);
  size_t total_tags = 0;
  for (size_t n : s.tags_per_depth) total_tags += n;
  EXPECT_EQ(total_tags, fx.data.num_tags);
}

TEST(StatsTest, UniformPopularityHasZeroGini) {
  Dataset d;
  d.name = "uniform";
  d.num_users = 4;
  d.num_items = 4;
  d.num_tags = 1;
  for (uint32_t u = 0; u < 4; ++u) {
    for (uint32_t v = 0; v < 4; ++v) {
      d.interactions.push_back({u, v, static_cast<int64_t>(u * 4 + v)});
    }
  }
  d.item_tags = {{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  EXPECT_NEAR(ComputeStats(d).item_popularity_gini, 0.0, 1e-12);
}

TEST(CheckpointTest, RoundTripPreservesMatrices) {
  Rng rng(5);
  Checkpoint ckpt;
  Matrix a(3, 4), b(2, 2);
  a.FillGaussian(&rng, 1.0);
  b.FillGaussian(&rng, 1.0);
  ckpt.Put("a", a);
  ckpt.Put("b", b);
  const std::string path = ::testing::TempDir() + "/taxorec_ckpt_test.bin";
  ASSERT_TRUE(ckpt.WriteFile(path).ok());
  auto loaded = Checkpoint::ReadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 2u);
  const Matrix* la = loaded->Get("a");
  ASSERT_NE(la, nullptr);
  ASSERT_EQ(la->rows(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(la->at(r, c), a.at(r, c));
    }
  }
  EXPECT_EQ(loaded->Get("missing"), nullptr);
  std::remove(path.c_str());
}

TEST(CheckpointTest, CorruptionIsDetected) {
  Checkpoint ckpt;
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  ckpt.Put("a", a);
  const std::string path = ::testing::TempDir() + "/taxorec_ckpt_corrupt.bin";
  ASSERT_TRUE(ckpt.WriteFile(path).ok());
  // Flip a payload byte.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16);
    char c = 0x7F;
    f.write(&c, 1);
  }
  auto loaded = Checkpoint::ReadFile(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(CheckpointTest, ModelSaveRestoreReproducesScores) {
  Fixture fx;
  TaxoRecModel model(TinyConfig(), TaxoRecOptions{});
  Rng rng(7);
  model.Fit(fx.split, &rng);
  const std::string path = ::testing::TempDir() + "/taxorec_model_ckpt.bin";
  ASSERT_TRUE(model.SaveCheckpoint().WriteFile(path).ok());

  auto ckpt = Checkpoint::ReadFile(path);
  ASSERT_TRUE(ckpt.ok());
  TaxoRecModel restored(TinyConfig(), TaxoRecOptions{});
  ASSERT_TRUE(restored.RestoreCheckpoint(*ckpt, fx.split).ok());

  std::vector<double> s1(fx.split.num_items), s2(fx.split.num_items);
  for (uint32_t u : {0u, 13u, 42u}) {
    model.ScoreItems(u, std::span<double>(s1));
    restored.ScoreItems(u, std::span<double>(s2));
    for (size_t v = 0; v < s1.size(); ++v) {
      EXPECT_NEAR(s1[v], s2[v], 1e-12) << "user " << u << " item " << v;
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, RestoreRejectsWrongShapes) {
  Fixture fx;
  TaxoRecModel model(TinyConfig(), TaxoRecOptions{});
  Rng rng(8);
  model.Fit(fx.split, &rng);
  Checkpoint ckpt = model.SaveCheckpoint();
  // A config with a different dimension must refuse the checkpoint.
  ModelConfig other = TinyConfig();
  other.dim = 32;
  TaxoRecModel wrong(other, TaxoRecOptions{});
  EXPECT_FALSE(wrong.RestoreCheckpoint(ckpt, fx.split).ok());
}

}  // namespace
}  // namespace taxorec
