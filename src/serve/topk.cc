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
/// O(|exclude|) per user. A full heap is offered finite scores only: its
/// worst entry scores >= -Inf and has a smaller id than any later item, so
/// a -Inf offer could never enter it.
void OfferBlock(std::span<const uint32_t> exclude, size_t* cursor,
                size_t begin, size_t end, std::span<double> block_scores,
                TopKHeap* heap) {
  while (*cursor < exclude.size() && exclude[*cursor] < end) {
    const uint32_t v = exclude[*cursor];
    TAXOREC_DCHECK(v >= begin);
    block_scores[v - begin] = kNegInf;
    ++*cursor;
  }
  size_t v = begin;
  for (; v < end && !heap->full(); ++v) {
    heap->Offer(static_cast<uint32_t>(v),
                SanitizeScore(block_scores[v - begin]));
  }
  for (; v < end; ++v) {
    const double score = block_scores[v - begin];
    if (std::isfinite(score)) heap->Offer(static_cast<uint32_t>(v), score);
  }
}

/// One user of a group sweep: what BlockedTopK takes for one user.
struct GroupMember {
  uint32_t user;
  size_t k;
  std::span<const uint32_t> exclude;
  TopKHeap* heap;
  std::vector<TopKEntry>* out;
  uint64_t* rerank_us;
};

/// Ranks a group of 1 to kScoreGroup users in one walk over the item
/// blocks: each block is scored for the whole group (one row per member,
/// FrozenModel::ScoreBlock), then every member's row feeds its own heap
/// through its own exclusion cursor. Each member's cutoff is its own
/// heap's worst score, and ScoreBlock's rows never depend on the group,
/// so every list is exactly the one its member would get alone.
/// `scratch` holds the rows, then ScoreBlock's working space.
void SweepGroup(const FrozenModel& model,
                std::span<const GroupMember> members,
                std::vector<double>* scratch, size_t block) {
  TAXOREC_CHECK(block > 0);
  const size_t g = members.size();
  TAXOREC_CHECK(g >= 1 && g <= (model.native() ? kScoreGroup : 1));
  const size_t n = model.num_items();
  // kVirtual snapshots score through the live model's ScoreItems: one full
  // row, swept as a single block, for a group of one.
  if (!model.native()) block = n;
  const size_t width = std::min(block, n);
  uint32_t users[kScoreGroup];
  double cutoffs[kScoreGroup];
  size_t cursors[kScoreGroup] = {};
  for (size_t i = 0; i < g; ++i) {
    users[i] = members[i].user;
    members[i].heap->Reset(CoarseK(model.tier(), members[i].k, n));
  }
  const size_t work_size =
      model.native() ? model.ScoreBlockScratch(g, width) : 0;
  scratch->resize(g * width + work_size);
  const std::span<double> work(scratch->data() + g * width, work_size);
  size_t pruned = 0;
  for (size_t begin = 0; begin < n; begin += block) {
    const size_t end = std::min(begin + block, n), count = end - begin;
    const std::span<double> rows(scratch->data(), g * count);
    if (model.native()) {
      // An item scoring below a full heap's worst entry can never enter,
      // and within the block the worst only improves, so the cutoff read
      // here stays valid for the whole block.
      for (size_t i = 0; i < g; ++i) {
        const TopKHeap& heap = *members[i].heap;
        cutoffs[i] = heap.full() ? heap.worst().score : kNegInf;
      }
      pruned += model.ScoreBlock({users, g}, begin, end, rows, {cutoffs, g},
                                 work);
    } else {
      for (size_t i = 0; i < g; ++i) {
        model.ScoreAll(users[i], rows.subspan(i * count, count));
      }
    }
    for (size_t i = 0; i < g; ++i) {
      OfferBlock(members[i].exclude, &cursors[i], begin, end,
                 rows.subspan(i * count, count), members[i].heap);
    }
  }
  static Counter* const items_swept =
      MetricsRegistry::Instance().GetCounter("taxorec.rank.items_swept");
  static Counter* const items_pruned =
      MetricsRegistry::Instance().GetCounter("taxorec.rank.items_pruned");
  items_swept->Increment(g * n);
  items_pruned->Increment(pruned);
  RerankScratch rerank;  // the int8 re-rank's buffers, shared by the group
  for (const GroupMember& m : members) {
    m.heap->Finish(m.out);
    if (model.tier() == PrecisionTier::kInt8) {
      RerankInt8Head(*model.compact(), {}, m.user, m.k, &rerank, m.out,
                     m.rerank_us);
    }
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
  const GroupMember member{user, k, exclude, heap, out, rerank_us};
  SweepGroup(model, {&member, 1}, scratch, block);
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
  // A kVirtual group gains nothing from sharing a walk (one full row per
  // member), so it ranks one user at a time through one catalogue row.
  const size_t group = model.native() ? kScoreGroup : 1;
  if (heaps->size() < std::min(users.size(), group)) {
    heaps->resize(std::min(users.size(), group));
  }
  GroupMember members[kScoreGroup];
  for (size_t g0 = 0; g0 < users.size(); g0 += group) {
    const size_t g = std::min(group, users.size() - g0);
    for (size_t i = 0; i < g; ++i) {
      const size_t r = g0 + i;
      members[i] = {users[r], ks[r], exclude_of(users[r]), &(*heaps)[i],
                    &(*out)[r],
                    rerank_us != nullptr ? &(*rerank_us)[r] : nullptr};
    }
    SweepGroup(model, {members, g}, scratch, block);
  }
}

}  // namespace taxorec
