// Multi-seed evaluation protocol: trains a model several times with
// different seeds and reports mean ± sample-std of every metric (the
// "x.xx±0.xx" cells of Table II), keeping first-seed per-user metrics for
// the Wilcoxon significance test.
#ifndef TAXOREC_EVAL_PROTOCOL_H_
#define TAXOREC_EVAL_PROTOCOL_H_

#include <string>
#include <vector>

#include "baselines/recommender.h"
#include "eval/evaluator.h"

namespace taxorec {

struct ProtocolOptions {
  int num_seeds = 3;
  EvalOptions eval;
};

struct ModelRunResult {
  std::string model;
  std::vector<int> ks;
  std::vector<double> recall_mean, recall_std;
  std::vector<double> ndcg_mean, ndcg_std;
  /// Per-user metrics at primary_k from the first seed (Wilcoxon inputs).
  std::vector<double> per_user_recall, per_user_ndcg;
  /// Cutoff of the per-user vectors (EvalResult::primary_k, i.e. ks[0]).
  /// Wilcoxon comparisons must only pair results with equal primary_k.
  int primary_k = 0;
  double train_seconds = 0.0;
};

/// Trains+evaluates the named factory model `num_seeds` times.
ModelRunResult RunModelProtocol(const std::string& model_name,
                                const ModelConfig& config,
                                const DataSplit& split,
                                const ProtocolOptions& opts = {});

/// Same protocol for an externally-constructed model family (used by the
/// ablation table, whose variants are not factory names).
ModelRunResult RunProtocol(const RecommenderFactory& factory,
                           const std::string& display_name,
                           const ModelConfig& config, const DataSplit& split,
                           const ProtocolOptions& opts = {});

/// Grid-search protocol (the paper's §V-A4 methodology): trains one model
/// per candidate config, selects the best by validation NDCG@ks[0], then
/// runs the full multi-seed protocol on the selected config. Returns that
/// result; *selected (optional) receives the winning config.
ModelRunResult RunProtocolGrid(const RecommenderFactory& factory,
                               const std::string& display_name,
                               const std::vector<ModelConfig>& grid,
                               const DataSplit& split,
                               const ProtocolOptions& opts = {},
                               ModelConfig* selected = nullptr);

}  // namespace taxorec

#endif  // TAXOREC_EVAL_PROTOCOL_H_
