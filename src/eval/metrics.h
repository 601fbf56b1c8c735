// Ranking metrics: Recall@K and NDCG@K over full (non-sampled) rankings,
// as required by §V-A2 (the paper follows Krichene & Rendle's advice to
// avoid sampled metrics).
#ifndef TAXOREC_EVAL_METRICS_H_
#define TAXOREC_EVAL_METRICS_H_

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

namespace taxorec {

/// Hybrid membership test over a user's held-out items: at or below
/// kLinearScanMaxTargets items a linear scan beats building an
/// unordered_set (measured on the synthetic power-law profiles, where most
/// users hold ≤ 8 test items), above it an unordered_set is built once.
/// Target lists come from CSR rows, so they are duplicate-free: |relevant|
/// is the list length under both strategies. Borrows the target list — it
/// must outlive the lookup.
class TargetLookup {
 public:
  static constexpr size_t kLinearScanMaxTargets = 8;

  explicit TargetLookup(const std::vector<uint32_t>& targets);

  bool contains(uint32_t v) const {
    if (!set_.empty()) return set_.contains(v);
    for (uint32_t t : list_) {
      if (t == v) return true;
    }
    return false;
  }

  size_t size() const { return list_.size(); }

 private:
  const std::vector<uint32_t>& list_;
  std::unordered_set<uint32_t> set_;
};

/// Recall@K: |top-K ∩ relevant| / |relevant|. `ranked` is the top-K item
/// list in rank order (may be longer; only the first K entries are used).
double RecallAtK(std::span<const uint32_t> ranked,
                 const std::unordered_set<uint32_t>& relevant, int k);
double RecallAtK(std::span<const uint32_t> ranked,
                 const TargetLookup& relevant, int k);

/// NDCG@K with binary relevance: DCG over the top-K hits divided by the
/// ideal DCG of min(K, |relevant|) hits.
double NdcgAtK(std::span<const uint32_t> ranked,
               const std::unordered_set<uint32_t>& relevant, int k);
double NdcgAtK(std::span<const uint32_t> ranked, const TargetLookup& relevant,
               int k);

}  // namespace taxorec

#endif  // TAXOREC_EVAL_METRICS_H_
