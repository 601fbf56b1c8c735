#include "eval/evaluator.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/heap_stats.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "eval/metrics.h"
#include "serve/frozen_model.h"
#include "serve/topk.h"

namespace taxorec {

EvalResult EvaluateRanking(const Recommender& model, const DataSplit& split,
                           const EvalOptions& opts) {
  TAXOREC_CHECK(!opts.ks.empty());
  static const int kHeapTag = RegisterHeapSubsystem("eval");
  HeapScope heap_scope(kHeapTag);
  TraceSpan span("evaluate_ranking");
  const auto eval_start = std::chrono::steady_clock::now();
  EvalResult result;
  result.ks = opts.ks;
  result.primary_k = opts.ks[0];
  result.recall.assign(opts.ks.size(), 0.0);
  result.ndcg.assign(opts.ks.size(), 0.0);
  const int max_k = *std::max_element(opts.ks.begin(), opts.ks.end());
  const size_t nk = opts.ks.size();

  // The double tier scores bit-identically to ScoreItems, so ranking on
  // the frozen model through the serving kernel gives the same lists as
  // scoring the whole catalogue and sorting it.
  const FrozenModel frozen = FrozenModel::Freeze(model, split);

  // Per-user fan-out: each user's ranking is independent and lands in
  // per-user slots, so the parallel loop is race-free and the per-user
  // numbers are bit-identical at any thread count.
  std::vector<double> recall_uk(split.num_users * nk, 0.0);
  std::vector<double> ndcg_uk(split.num_users * nk, 0.0);
  std::vector<uint8_t> evaluated(split.num_users, 0);

  struct Scratch {
    std::vector<TopKHeap> heaps;
    std::vector<double> scores;
    std::vector<uint32_t> group;  // users with targets, in id order
    std::vector<size_t> ks;
    // Per group member: the sorted train ∪ val list (test protocol).
    std::vector<uint32_t> merged[kScoreGroup];
    std::span<const uint32_t> exclude[kScoreGroup];
    std::vector<std::vector<TopKEntry>> top;
    std::vector<uint32_t> ranked;
  };
  ThreadLocalAccumulator<Scratch> scratch;

  ParallelForWorker(
      0, split.num_users, /*grain=*/16,
      [&](size_t u0, size_t u1, int worker) {
        Scratch& s = scratch.Local(worker);
        const auto targets_of = [&](size_t u) -> const std::vector<uint32_t>& {
          return opts.use_test ? split.test_items[u] : split.val_items[u];
        };
        // The chunk's users with targets are ranked in groups of
        // kScoreGroup; a list does not depend on its group, so neither do
        // the metrics.
        for (size_t next = u0; next < u1;) {
          s.group.clear();
          for (; next < u1 && s.group.size() < kScoreGroup; ++next) {
            if (!targets_of(next).empty()) {
              s.group.push_back(static_cast<uint32_t>(next));
            }
          }
          if (s.group.empty()) break;
          // Already-seen items are masked out of the ranking: train, plus
          // val on the test protocol. val_items is in timestamp order, so
          // the merged list is sorted here.
          for (size_t i = 0; i < s.group.size(); ++i) {
            const uint32_t u = s.group[i];
            s.exclude[i] = split.train.RowCols(u);
            if (opts.use_test && !split.val_items[u].empty()) {
              std::vector<uint32_t>& merged = s.merged[i];
              merged.assign(s.exclude[i].begin(), s.exclude[i].end());
              merged.insert(merged.end(), split.val_items[u].begin(),
                            split.val_items[u].end());
              std::sort(merged.begin(), merged.end());
              s.exclude[i] = merged;
            }
          }
          s.ks.assign(s.group.size(), static_cast<size_t>(max_k));
          const auto exclude_of = [&](uint32_t u) {
            return s.exclude[std::find(s.group.begin(), s.group.end(), u) -
                             s.group.begin()];
          };
          BlockedTopKBatch(frozen, s.group, s.ks, exclude_of, &s.heaps,
                           &s.scores, &s.top);

          for (size_t i = 0; i < s.group.size(); ++i) {
            const size_t uu = s.group[i];
            const TargetLookup targets(targets_of(uu));
            s.ranked.resize(s.top[i].size());
            for (size_t r = 0; r < s.top[i].size(); ++r) {
              s.ranked[r] = s.top[i][r].item;
            }
            for (size_t j = 0; j < nk; ++j) {
              recall_uk[uu * nk + j] = RecallAtK(s.ranked, targets, opts.ks[j]);
              ndcg_uk[uu * nk + j] = NdcgAtK(s.ranked, targets, opts.ks[j]);
            }
            evaluated[uu] = 1;
          }
        }
      });

  // Ordered reduction in ascending user id — the same accumulation order as
  // the sequential loop, so the aggregate metrics match it bit for bit.
  for (size_t u = 0; u < split.num_users; ++u) {
    if (!evaluated[u]) continue;
    for (size_t i = 0; i < nk; ++i) {
      result.recall[i] += recall_uk[u * nk + i];
      result.ndcg[i] += ndcg_uk[u * nk + i];
    }
    result.per_user_recall.push_back(recall_uk[u * nk]);
    result.per_user_ndcg.push_back(ndcg_uk[u * nk]);
    ++result.num_eval_users;
  }

  if (result.num_eval_users > 0) {
    const double n = static_cast<double>(result.num_eval_users);
    for (size_t i = 0; i < nk; ++i) {
      result.recall[i] /= n;
      result.ndcg[i] /= n;
    }
  }

  static Counter* calls =
      MetricsRegistry::Instance().GetCounter("taxorec.eval.calls");
  static Counter* users =
      MetricsRegistry::Instance().GetCounter("taxorec.eval.users");
  static Histogram* wall = MetricsRegistry::Instance().GetHistogram(
      "taxorec.eval.wall_seconds",
      {0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0});
  calls->Increment();
  users->Increment(result.num_eval_users);
  wall->Observe(std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - eval_start)
                    .count());
  return result;
}

}  // namespace taxorec
