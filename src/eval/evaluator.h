// Full-ranking evaluation of a trained recommender (§V-A2 protocol).
//
// For every user with held-out positives, ranks the whole catalogue with
// items seen in training (and in validation when evaluating on test)
// masked, and computes Recall@K / NDCG@K over that full ranking.
//
// The ranking is the serving kernel's (serve/topk.h): EvaluateRanking
// freezes the model once per call on the double tier, whose scores are
// bit-identical to ScoreItems, and ranks each pool chunk's users that
// have targets in groups of kScoreGroup through BlockedTopKBatch. A list
// never depends on its group, so lists, and so the metrics, are exactly
// those of scoring every item and sorting (score descending, lower item
// id first on ties, non-finite scores last), at any thread count. Besides
// the per-user metric slots, per-call memory is the frozen embeddings
// plus per-worker O(kScoreGroup · (block + K + seen items)) scratch —
// nothing grows with interactions or users x items.
#ifndef TAXOREC_EVAL_EVALUATOR_H_
#define TAXOREC_EVAL_EVALUATOR_H_

#include <vector>

#include "baselines/recommender.h"
#include "data/dataset.h"

namespace taxorec {

struct EvalOptions {
  std::vector<int> ks = {10, 20};
  /// true → evaluate on test (masking train+val); false → validation
  /// (masking train only).
  bool use_test = true;
};

struct EvalResult {
  std::vector<int> ks;
  std::vector<double> recall;  // mean over evaluated users, aligned with ks
  std::vector<double> ndcg;
  /// Per-user metrics at primary_k (inputs for the Wilcoxon signed-rank
  /// test); ordered by ascending user id over evaluated users.
  std::vector<double> per_user_recall;
  std::vector<double> per_user_ndcg;
  /// The cutoff the per-user vectors were computed at — always ks[0] of the
  /// producing run. Significance tests must only pair runs whose primary_k
  /// matches; comparing per-user metrics at different cutoffs is
  /// meaningless.
  int primary_k = 0;
  size_t num_eval_users = 0;
};

EvalResult EvaluateRanking(const Recommender& model, const DataSplit& split,
                           const EvalOptions& opts = {});

}  // namespace taxorec

#endif  // TAXOREC_EVAL_EVALUATOR_H_
