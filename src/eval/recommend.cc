#include "eval/recommend.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "serve/server.h"

namespace taxorec {

std::vector<TopKEntry> RecommendTopK(const Recommender& model,
                                     const DataSplit& split, uint32_t user,
                                     const RecommendOptions& opts) {
  TAXOREC_CHECK(user < split.num_users);
  std::vector<double> scores(split.num_items);
  model.ScoreItems(user, std::span<double>(scores));
  // A NaN score would break the comparator below: NaN != x is true while
  // NaN > x and x > NaN are both false, so the "greater" lambda stops being
  // a strict weak ordering and partial_sort is undefined behavior. Rank
  // every non-finite score last instead; -inf maps to itself, so the
  // exclusion masking that follows is unaffected.
  for (double& x : scores) {
    if (!std::isfinite(x)) x = -std::numeric_limits<double>::infinity();
  }
  for (uint32_t v : split.train.RowCols(user)) {
    scores[v] = -std::numeric_limits<double>::infinity();
  }
  std::vector<uint32_t> order(split.num_items);
  std::iota(order.begin(), order.end(), 0u);
  const size_t top = std::min(opts.k, order.size());
  std::partial_sort(order.begin(), order.begin() + top, order.end(),
                    [&](uint32_t a, uint32_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  std::vector<TopKEntry> out;
  out.reserve(top);
  for (size_t i = 0; i < top; ++i) {
    out.push_back({order[i], scores[order[i]]});
  }
  return out;
}

std::vector<std::vector<uint32_t>> RecommendAllUsers(
    const Recommender& model, const DataSplit& split,
    const RecommendOptions& opts) {
  // Route through the serving layer: one frozen snapshot, blocked top-K
  // heaps, and the deterministic thread pool, instead of a sequential
  // score-everything-then-partial_sort loop per user. Results land in
  // per-user slots, so the lists are bit-identical at any --threads value
  // — and identical to calling RecommendTopK per user.
  BatchServer server(model, split);
  std::vector<ServeRequest> requests(split.num_users);
  for (uint32_t u = 0; u < split.num_users; ++u) {
    requests[u] = ServeRequest{u, opts.k};
  }
  const auto ranked = server.ServeBatch(requests);
  std::vector<std::vector<uint32_t>> out(split.num_users);
  for (uint32_t u = 0; u < split.num_users; ++u) {
    out[u].reserve(ranked[u].size());
    for (const TopKEntry& e : ranked[u]) out[u].push_back(e.item);
  }
  return out;
}

}  // namespace taxorec
