#include "eval/protocol.h"

#include <chrono>

#include "common/check.h"
#include "stats/descriptive.h"

namespace taxorec {
namespace {

// Seed of the first run (and of every grid-search candidate); run s uses
// kBaseSeed + 7919·s.
constexpr uint64_t kBaseSeed = 1000;

}  // namespace

ModelRunResult RunProtocol(const RecommenderFactory& factory,
                           const std::string& display_name,
                           const ModelConfig& config, const DataSplit& split,
                           const ProtocolOptions& opts) {
  TAXOREC_CHECK(opts.num_seeds >= 1);
  ModelRunResult result;
  result.model = display_name;
  result.ks = opts.eval.ks;

  const size_t nk = opts.eval.ks.size();
  std::vector<std::vector<double>> recalls(nk), ndcgs(nk);
  const auto t0 = std::chrono::steady_clock::now();
  for (int s = 0; s < opts.num_seeds; ++s) {
    ModelConfig cfg = config;
    cfg.seed = kBaseSeed + static_cast<uint64_t>(s) * 7919;
    auto model = factory(cfg);
    TAXOREC_CHECK(model != nullptr);
    Rng rng(cfg.seed);
    model->Fit(split, &rng);
    const EvalResult er = EvaluateRanking(*model, split, opts.eval);
    for (size_t i = 0; i < nk; ++i) {
      recalls[i].push_back(er.recall[i]);
      ndcgs[i].push_back(er.ndcg[i]);
    }
    if (s == 0) {
      result.per_user_recall = er.per_user_recall;
      result.per_user_ndcg = er.per_user_ndcg;
      result.primary_k = er.primary_k;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.train_seconds =
      std::chrono::duration<double>(t1 - t0).count() /
      static_cast<double>(opts.num_seeds);

  for (size_t i = 0; i < nk; ++i) {
    result.recall_mean.push_back(stats::Mean(recalls[i]));
    result.recall_std.push_back(stats::StdDev(recalls[i]));
    result.ndcg_mean.push_back(stats::Mean(ndcgs[i]));
    result.ndcg_std.push_back(stats::StdDev(ndcgs[i]));
  }
  return result;
}

ModelRunResult RunProtocolGrid(const RecommenderFactory& factory,
                               const std::string& display_name,
                               const std::vector<ModelConfig>& grid,
                               const DataSplit& split,
                               const ProtocolOptions& opts,
                               ModelConfig* selected) {
  TAXOREC_CHECK(!grid.empty());
  size_t best = 0;
  if (grid.size() > 1) {
    EvalOptions val_opts = opts.eval;
    val_opts.use_test = false;
    double best_metric = -1.0;
    for (size_t i = 0; i < grid.size(); ++i) {
      ModelConfig cfg = grid[i];
      cfg.seed = kBaseSeed;
      auto model = factory(cfg);
      TAXOREC_CHECK(model != nullptr);
      Rng rng(cfg.seed);
      model->Fit(split, &rng);
      const EvalResult er = EvaluateRanking(*model, split, val_opts);
      if (er.ndcg[0] > best_metric) {
        best_metric = er.ndcg[0];
        best = i;
      }
    }
  }
  if (selected != nullptr) *selected = grid[best];
  return RunProtocol(factory, display_name, grid[best], split, opts);
}

ModelRunResult RunModelProtocol(const std::string& model_name,
                                const ModelConfig& config,
                                const DataSplit& split,
                                const ProtocolOptions& opts) {
  return RunProtocol(
      [&model_name](const ModelConfig& cfg) {
        return MakeModel(model_name, cfg);
      },
      model_name, config, split, opts);
}

}  // namespace taxorec
