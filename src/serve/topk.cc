#include "serve/topk.h"

#include <algorithm>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "serve/kernels_f32.h"

namespace taxorec {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Worst-first heap order: parent is worse than (ranked after) children.
inline bool WorseThan(const TopKEntry& a, const TopKEntry& b) {
  return RanksBefore(b.score, b.item, a.score, a.item);
}

/// The admission step of every exact sweep: forces the scores of `exclude`
/// entries falling in [begin, end) to -Inf, then offers items [begin, end)
/// with sanitized scores. `exclude` is sorted ascending; *cursor advances
/// monotonically across consecutive blocks so the whole walk is
/// O(|exclude|) per user.
void OfferBlock(std::span<const uint32_t> exclude, size_t* cursor,
                size_t begin, size_t end, std::span<double> block_scores,
                TopKHeap* heap) {
  while (*cursor < exclude.size() && exclude[*cursor] < end) {
    const uint32_t v = exclude[*cursor];
    TAXOREC_DCHECK(v >= begin);
    block_scores[v - begin] = kNegInf;
    ++*cursor;
  }
  for (size_t v = begin; v < end; ++v) {
    heap->Offer(static_cast<uint32_t>(v),
                SanitizeScore(block_scores[v - begin]));
  }
}

}  // namespace

void RerankInt8Head(const CompactSnapshot& compact,
                    std::span<const uint32_t> row_of, uint32_t user, size_t k,
                    RerankScratch* scratch, std::vector<TopKEntry>* entries,
                    uint64_t* rerank_us) {
  const uint64_t t0 = rerank_us != nullptr ? internal::TraceNowMicros() : 0;
  scratch->rows.clear();
  for (const TopKEntry& e : *entries) {
    if (e.score != kNegInf) {
      scratch->rows.push_back(row_of.empty() ? e.item : row_of[e.item]);
    }
  }
  scratch->scores.resize(scratch->rows.size());
  f32::ScoreItemsF32(compact, user, scratch->rows, scratch->scores.data());
  size_t r = 0;
  for (TopKEntry& e : *entries) {
    if (e.score != kNegInf) e.score = SanitizeScore(scratch->scores[r++]);
  }
  // Items are unique, so RanksBefore is a strict total order here and the
  // sorted head does not depend on the coarse order.
  std::sort(entries->begin(), entries->end(),
            [](const TopKEntry& a, const TopKEntry& b) {
              return RanksBefore(a.score, a.item, b.score, b.item);
            });
  if (entries->size() > k) entries->resize(k);
  if (rerank_us != nullptr) *rerank_us += internal::TraceNowMicros() - t0;
}

void TopKHeap::Reset(size_t k) {
  k_ = k;
  heap_.clear();
  if (k_ > 0 && heap_.capacity() < k_) heap_.reserve(k_);
}

void TopKHeap::SiftUp(size_t i) {
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!WorseThan(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void TopKHeap::SiftDown(size_t i) {
  const size_t n = heap_.size();
  for (;;) {
    size_t worst = i;
    const size_t l = 2 * i + 1, r = 2 * i + 2;
    if (l < n && WorseThan(heap_[l], heap_[worst])) worst = l;
    if (r < n && WorseThan(heap_[r], heap_[worst])) worst = r;
    if (worst == i) return;
    std::swap(heap_[i], heap_[worst]);
    i = worst;
  }
}

void TopKHeap::Finish(std::vector<TopKEntry>* out) {
  out->resize(heap_.size());
  // Pop worst-first into descending slots → best-first output.
  for (size_t n = heap_.size(); n > 0; --n) {
    (*out)[n - 1] = heap_[0];
    heap_[0] = heap_[n - 1];
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(0);
  }
  k_ = 0;
}

void BlockedTopK(const FrozenModel& model, uint32_t user, size_t k,
                 std::span<const uint32_t> exclude, TopKHeap* heap,
                 std::vector<double>* scratch, std::vector<TopKEntry>* out,
                 size_t block, uint64_t* rerank_us) {
  TAXOREC_CHECK(block > 0);
  const size_t n = model.num_items();
  // kVirtual snapshots score through the live model's ScoreItems: one full
  // row, swept as a single block.
  if (!model.native()) block = n;
  heap->Reset(CoarseK(model.tier(), k, n));
  scratch->resize(std::min(block, n));
  size_t cursor = 0, pruned = 0;
  for (size_t begin = 0; begin < n; begin += block) {
    const size_t end = std::min(begin + block, n);
    const std::span<double> scores(scratch->data(), end - begin);
    if (model.native()) {
      // An item scoring below a full heap's worst entry can never enter,
      // and within the block the worst only improves, so the cutoff read
      // here stays valid for the whole block.
      pruned += model.ScoreBlock(user, begin, end, scores,
                                 heap->full() ? heap->worst().score : kNegInf);
    } else {
      model.ScoreAll(user, scores);
    }
    OfferBlock(exclude, &cursor, begin, end, scores, heap);
  }
  static Counter* const items_swept =
      MetricsRegistry::Instance().GetCounter("taxorec.rank.items_swept");
  static Counter* const items_pruned =
      MetricsRegistry::Instance().GetCounter("taxorec.rank.items_pruned");
  items_swept->Increment(n);
  items_pruned->Increment(pruned);
  heap->Finish(out);
  if (model.tier() == PrecisionTier::kInt8) {
    RerankScratch rerank;
    RerankInt8Head(*model.compact(), {}, user, k, &rerank, out, rerank_us);
  }
}

void BlockedTopKBatch(
    const FrozenModel& model, std::span<const uint32_t> users,
    std::span<const size_t> ks,
    const std::function<std::span<const uint32_t>(uint32_t)>& exclude_of,
    std::vector<TopKHeap>* heaps, std::vector<double>* scratch,
    std::vector<std::vector<TopKEntry>>* out, size_t block,
    std::vector<uint64_t>* rerank_us) {
  TAXOREC_CHECK(users.size() == ks.size());
  out->resize(users.size());
  if (rerank_us != nullptr) rerank_us->assign(users.size(), 0);
  if (heaps->empty()) heaps->resize(1);
  for (size_t i = 0; i < users.size(); ++i) {
    BlockedTopK(model, users[i], ks[i], exclude_of(users[i]), &heaps->front(),
                scratch, &(*out)[i], block,
                rerank_us != nullptr ? &(*rerank_us)[i] : nullptr);
  }
}

}  // namespace taxorec
