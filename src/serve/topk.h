// Bounded top-K selection over blocked scoring — the one ranking path.
//
// Every ranked list in the library comes out of this file: served lists
// (BatchServer), offline evaluation (EvaluateRanking ranks on a double-tier
// FrozenModel, bit-identical to the live model's ScoreItems) and the IVF
// probe's int8 re-rank. Every exact list comes out of one group sweep:
// BlockedTopKBatch walks the item blocks once per group of up to
// kScoreGroup users, each with its own heap, exclusion cursor and cutoff,
// and BlockedTopK is the group of one. The only other selector is
// RecommendTopK (eval/recommend.h), kept as the independent
// score-everything-then-partial_sort oracle that tests compare these lists
// against.
//
// The catalogue streams through in fixed-size item blocks: each block is
// scored for the group into a small scratch buffer (L1-resident), one row
// per user (FrozenModel::ScoreBlock), exclusions are masked by walking a
// sorted exclusion list in lockstep, and survivors feed a K-bounded binary
// heap. Memory per request is O(block + K) regardless of catalogue size.
// Once a user's heap is full, the block is scored with the heap's worst
// score as that user's cutoff, so the double tier skips items that cannot
// enter, and only finite scores are offered; the lists do not change, and
// a list never depends on the group it was ranked in.
//
// Ranking order is the repo-wide deterministic total order: score
// descending, item id ascending on ties. Non-finite scores (NaN, ±Inf) are
// mapped to -Inf before ranking — NaN would otherwise break the strict
// weak ordering (an incoherent heap) — so defective scores always rank
// last. Excluded items are masked to -Inf, not dropped.
//
// Precision tiers: on an int8-tier model the block sweep keeps a coarse
// head of kInt8RerankFactor * K candidates, then RerankInt8Head
// exact-rescores them in float32 and keeps the best K — served scores from
// the int8 tier are therefore always float32-exact. The double and float32
// tiers rank directly on their block scores.
#ifndef TAXOREC_SERVE_TOPK_H_
#define TAXOREC_SERVE_TOPK_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "serve/frozen_model.h"

namespace taxorec {

/// Items per scoring block: a group's rows are 8 x 64 doubles = 4 KiB of
/// scratch, cache-resident while the heaps consume them. Each user's
/// pruning cutoff is read once per block, so small blocks let it tighten
/// early, against a few calls per block on every tier. Against 128 and
/// 256, neither won every pair on rank-serve's or fit-graph's
/// `serve_qps` or on bench_serve's float32 sweep (DESIGN.md §10).
inline constexpr size_t kServeItemBlock = 64;

/// Maps non-finite scores (NaN, +Inf, -Inf) to -Inf so the ranking
/// comparator stays a strict weak order and defective scores rank last.
inline double SanitizeScore(double s) {
  return std::isfinite(s) ? s : -std::numeric_limits<double>::infinity();
}

/// One ranked result entry.
struct TopKEntry {
  uint32_t item = 0;
  double score = 0.0;
  bool operator==(const TopKEntry&) const = default;
};

/// True when (score_a, item_a) ranks strictly before (score_b, item_b):
/// higher score first, lower item id on ties. A strict total order for
/// sanitized (NaN-free) scores.
inline bool RanksBefore(double score_a, uint32_t item_a, double score_b,
                        uint32_t item_b) {
  if (score_a != score_b) return score_a > score_b;
  return item_a < item_b;
}

/// K-bounded selection heap: keeps the K best (RanksBefore) entries seen so
/// far, worst at the root so each losing candidate costs one comparison.
class TopKHeap {
 public:
  TopKHeap() = default;
  explicit TopKHeap(size_t k) { Reset(k); }

  /// Clears the heap and sets the bound (k == 0 keeps nothing).
  void Reset(size_t k);

  size_t k() const { return k_; }
  size_t size() const { return heap_.size(); }

  /// True once the heap holds its full complement of k entries (k > 0) —
  /// from then on worst() is the live admission threshold.
  bool full() const { return k_ > 0 && heap_.size() >= k_; }

  /// The current worst held entry (the root); only meaningful when
  /// size() > 0. Once full() it is the admission threshold: BlockedTopK
  /// passes its score to ScoreBlock as the pruning cutoff, and the IVF
  /// prober compares cell score upper bounds against it to prune cells
  /// that cannot displace anything.
  const TopKEntry& worst() const {
    TAXOREC_DCHECK(!heap_.empty());
    return heap_[0];
  }

  /// Offers a candidate; `score` must already be sanitized. NaN would
  /// break RanksBefore's strict weak order (every comparison false), so it
  /// is rejected at the boundary in debug builds rather than silently
  /// corrupting the heap invariant.
  void Offer(uint32_t item, double score) {
    TAXOREC_DCHECK(!std::isnan(score));
    if (heap_.size() < k_) {
      heap_.push_back({item, score});
      SiftUp(heap_.size() - 1);
      return;
    }
    if (k_ == 0 || !RanksBefore(score, item, heap_[0].score, heap_[0].item)) {
      return;  // Not better than the current worst.
    }
    heap_[0] = {item, score};
    SiftDown(0);
  }

  /// Moves the ranked entries into *out, best first; the heap is left
  /// empty (Reset before reuse).
  void Finish(std::vector<TopKEntry>* out);

 private:
  // Binary heap with the *worst* entry (per RanksBefore) at index 0.
  void SiftUp(size_t i);
  void SiftDown(size_t i);

  size_t k_ = 0;
  std::vector<TopKEntry> heap_;
};

/// Heap bound of the coarse stage: the int8 tier over-fetches
/// kInt8RerankFactor * k candidates for RerankInt8Head; every other tier
/// keeps k. k is clamped to the catalogue first, so a huge requested k
/// cannot wrap the product.
inline size_t CoarseK(PrecisionTier tier, size_t k, size_t num_items) {
  const size_t kept = std::min(k, num_items);
  return tier == PrecisionTier::kInt8
             ? std::min(kept * kInt8RerankFactor, num_items)
             : kept;
}

/// Reusable buffers of RerankInt8Head.
struct RerankScratch {
  std::vector<uint32_t> rows;
  std::vector<double> scores;
};

/// The int8 tier's second stage, shared by BlockedTopK and the IVF probe:
/// exact-rescores the coarse head `entries` in float32 against `compact`
/// and keeps the best k, best first. `row_of` maps an item id to its row in
/// `compact` (empty: the identity). Masked candidates (coarse score -Inf)
/// keep -Inf — the coarse stage already applied the exclusion semantics —
/// so they only survive when k exceeds the remaining catalogue, exactly as
/// in the single-stage tiers. Non-null `rerank_us` accumulates the stage's
/// wall time (microseconds); null skips all timing.
void RerankInt8Head(const CompactSnapshot& compact,
                    std::span<const uint32_t> row_of, uint32_t user, size_t k,
                    RerankScratch* scratch, std::vector<TopKEntry>* entries,
                    uint64_t* rerank_us);

/// Top-k items for `user`, best first, over the frozen model: the group
/// sweep for a group of one. `exclude` is a sorted-ascending item list
/// (e.g. split.train.RowCols(user); duplicates allowed) whose scores are
/// forced to -Inf before ranking, so excluded items can still appear (at
/// -Inf) when k exceeds the remaining catalogue. `scratch` is caller-owned
/// reusable space for the block scores and ScoreBlock's working space;
/// `heap` likewise (both resized internally, so a warm double-tier sweep
/// allocates nothing). Native kernels stream `block`-sized item blocks;
/// kVirtual views score one full row (the live model's ScoreItems) as
/// a single block.
/// When `rerank_us` is non-null, the wall time of the int8-tier float32
/// re-rank stage is added to it (microseconds; untouched on the other
/// tiers) — the request-observability hook. Null skips all timing.
void BlockedTopK(const FrozenModel& model, uint32_t user, size_t k,
                 std::span<const uint32_t> exclude, TopKHeap* heap,
                 std::vector<double>* scratch, std::vector<TopKEntry>* out,
                 size_t block = kServeItemBlock, uint64_t* rerank_us = nullptr);

/// Ranks users[i] with bound ks[i] into (*out)[i], one group sweep per
/// kScoreGroup consecutive users (per user on kVirtual views, which
/// score a full row per member). Each list is a pure function of (model,
/// user, k, exclusions) — identical to BlockedTopK's — and never of the
/// batch or group around it. exclude_of(u) must return u's sorted
/// exclusion list (empty span for none); `heaps` holds one reusable heap
/// per group member and `scratch` the group's block scores.
/// Non-null `rerank_us` is resized to users.size() and filled with each
/// user's float32 re-rank wall time (0 on non-int8 tiers).
void BlockedTopKBatch(
    const FrozenModel& model, std::span<const uint32_t> users,
    std::span<const size_t> ks,
    const std::function<std::span<const uint32_t>(uint32_t)>& exclude_of,
    std::vector<TopKHeap>* heaps, std::vector<double>* scratch,
    std::vector<std::vector<TopKEntry>>* out, size_t block = kServeItemBlock,
    std::vector<uint64_t>* rerank_us = nullptr);

}  // namespace taxorec

#endif  // TAXOREC_SERVE_TOPK_H_
