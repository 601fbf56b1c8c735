// End-to-end integration tests: full pipeline from synthetic generation
// through training to evaluation, checking the qualitative relationships
// the paper reports (training beats popularity; the tag channel helps on
// tag-driven data; constructed taxonomies align with the planted tree).
#include <gtest/gtest.h>

#include "baselines/recommender.h"
#include "core/taxorec_model.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/protocol.h"
#include "taxonomy/metrics.h"

namespace taxorec {
namespace {

// Popularity baseline: rank items by training interaction count.
class PopularityModel : public Recommender {
 public:
  std::string name() const override { return "Popularity"; }
  void BeginFit(const DataSplit& split, Rng*) override {
    counts_.assign(split.num_items, 0.0);
    for (size_t u = 0; u < split.num_users; ++u) {
      for (uint32_t v : split.train.RowCols(u)) counts_[v] += 1.0;
    }
  }
  void ScoreItems(uint32_t, std::span<double> out) const override {
    for (size_t v = 0; v < counts_.size(); ++v) out[v] = counts_[v];
  }

 private:
  std::vector<double> counts_;
};

struct Fixture {
  Dataset data;
  DataSplit split;
};

const Fixture& SharedFixture() {
  static const Fixture* fx = [] {
    SyntheticConfig cfg;
    cfg.name = "integration";
    cfg.seed = 1234;
    cfg.num_users = 150;
    cfg.num_items = 220;
    cfg.num_tags = 30;
    cfg.num_roots = 3;
    cfg.mean_interactions_per_user = 22.0;
    cfg.tag_affinity_mean = 0.8;  // strongly tag-driven users
    auto* f = new Fixture;
    f->data = GenerateSynthetic(cfg);
    f->split = TemporalSplit(f->data);
    return f;
  }();
  return *fx;
}

ModelConfig MediumConfig() {
  ModelConfig cfg;
  cfg.dim = 24;
  cfg.tag_dim = 8;
  cfg.epochs = 25;
  cfg.batches_per_epoch = 6;
  cfg.batch_size = 256;
  cfg.lr = 0.05;
  cfg.gcn_layers = 2;
  cfg.taxo_rebuild_every = 3;
  return cfg;
}

double ValRecall20(Recommender* model, const DataSplit& split, uint64_t seed) {
  Rng rng(seed);
  model->Fit(split, &rng);
  EvalOptions opts;
  opts.use_test = false;
  return EvaluateRanking(*model, split, opts).recall[1];
}

TEST(IntegrationTest, TaxoRecBeatsPopularity) {
  const auto& fx = SharedFixture();
  PopularityModel pop;
  const double pop_recall = ValRecall20(&pop, fx.split, 1);
  auto taxorec = MakeModel("TaxoRec", MediumConfig());
  const double taxo_recall = ValRecall20(taxorec.get(), fx.split, 1);
  EXPECT_GT(taxo_recall, pop_recall);
}

TEST(IntegrationTest, HgcfBeatsPopularity) {
  const auto& fx = SharedFixture();
  PopularityModel pop;
  const double pop_recall = ValRecall20(&pop, fx.split, 2);
  auto hgcf = MakeModel("HGCF", MediumConfig());
  EXPECT_GT(ValRecall20(hgcf.get(), fx.split, 2), pop_recall);
}

TEST(IntegrationTest, ConstructedTaxonomyAlignsWithPlantedTree) {
  const auto& fx = SharedFixture();
  auto cfg = MediumConfig();
  TaxoRecOptions opts;
  TaxoRecModel model(cfg, opts);
  Rng rng(3);
  model.Fit(fx.split, &rng);
  ASSERT_NE(model.taxonomy(), nullptr);
  const TaxonomyQuality q =
      EvaluateTaxonomy(*model.taxonomy(), fx.data.tag_parent);
  // The learned tree should beat random pairing by a clear margin. With 3
  // balanced planted subtrees, random same-cluster pairing precision ≈ 1/3.
  EXPECT_GT(q.pair_precision, 0.35);
  EXPECT_GT(q.top_level_purity, 0.5);
}

TEST(IntegrationTest, ProtocolReportsStatsOverSeeds) {
  const auto& fx = SharedFixture();
  ModelConfig cfg = MediumConfig();
  cfg.epochs = 2;
  cfg.batches_per_epoch = 3;
  ProtocolOptions popts;
  popts.num_seeds = 2;
  const ModelRunResult r = RunModelProtocol("CML", cfg, fx.split, popts);
  EXPECT_EQ(r.model, "CML");
  ASSERT_EQ(r.recall_mean.size(), 2u);
  EXPECT_GE(r.recall_mean[1], 0.0);
  EXPECT_GE(r.recall_std[1], 0.0);
  EXPECT_FALSE(r.per_user_ndcg.empty());
  EXPECT_GT(r.train_seconds, 0.0);
}

}  // namespace
}  // namespace taxorec
