// Top-N recommendation convenience API over any trained Recommender.
#ifndef TAXOREC_EVAL_RECOMMEND_H_
#define TAXOREC_EVAL_RECOMMEND_H_

#include <cstdint>
#include <vector>

#include "baselines/recommender.h"
#include "data/dataset.h"
#include "serve/topk.h"

namespace taxorec {

struct RecommendOptions {
  size_t k = 10;
};

/// Returns the top-k items for `user`, best first, deterministic under
/// score ties (lower item id wins). Items the user interacted with in
/// training are excluded (scored -Inf). Non-finite model scores (NaN,
/// ±Inf) rank last, like excluded items.
///
/// This is the ranking oracle: it scores the whole catalogue through the
/// live model's ScoreItems and partial_sorts it, independently of the
/// serve/topk kernel that every other ranked list in the library comes
/// from (serving, RecommendAllUsers, EvaluateRanking). Tests and the
/// benchmark's served-list check compare that kernel against this
/// function, so it deliberately keeps its own std::partial_sort — routing
/// it through the kernel would make those checks compare the kernel with
/// itself.
std::vector<TopKEntry> RecommendTopK(const Recommender& model,
                                     const DataSplit& split, uint32_t user,
                                     const RecommendOptions& opts = {});

/// Batch variant over all users; result[u] is the user's top-k item list
/// (ids only).
/// Implemented on the serving layer: a FrozenModel snapshot of `model` plus
/// the blocked top-K kernel fanned out over the deterministic thread pool,
/// so it is parallel yet bit-identical to per-user RecommendTopK calls at
/// any thread count.
std::vector<std::vector<uint32_t>> RecommendAllUsers(
    const Recommender& model, const DataSplit& split,
    const RecommendOptions& opts = {});

}  // namespace taxorec

#endif  // TAXOREC_EVAL_RECOMMEND_H_
