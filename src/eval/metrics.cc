#include "eval/metrics.h"

#include <algorithm>
#include <cmath>

namespace taxorec {
namespace {

// Both lookup types expose contains()/size() (unordered_set::contains is
// C++20), so a single implementation serves the set- and TargetLookup-based
// overloads — the evaluator and any external caller compute Recall/NDCG
// with literally the same code.
template <typename Lookup>
double RecallAtKImpl(std::span<const uint32_t> ranked, const Lookup& relevant,
                     int k) {
  if (relevant.size() == 0) return 0.0;
  const size_t limit = std::min<size_t>(ranked.size(), static_cast<size_t>(k));
  size_t hits = 0;
  for (size_t i = 0; i < limit; ++i) {
    if (relevant.contains(ranked[i])) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(relevant.size());
}

template <typename Lookup>
double NdcgAtKImpl(std::span<const uint32_t> ranked, const Lookup& relevant,
                   int k) {
  if (relevant.size() == 0) return 0.0;
  const size_t limit = std::min<size_t>(ranked.size(), static_cast<size_t>(k));
  double dcg = 0.0;
  for (size_t i = 0; i < limit; ++i) {
    if (relevant.contains(ranked[i])) {
      dcg += 1.0 / std::log2(static_cast<double>(i) + 2.0);
    }
  }
  const size_t ideal_hits =
      std::min<size_t>(relevant.size(), static_cast<size_t>(k));
  double idcg = 0.0;
  for (size_t i = 0; i < ideal_hits; ++i) {
    idcg += 1.0 / std::log2(static_cast<double>(i) + 2.0);
  }
  return idcg > 0.0 ? dcg / idcg : 0.0;
}

}  // namespace

TargetLookup::TargetLookup(const std::vector<uint32_t>& targets)
    : list_(targets) {
  if (targets.size() > kLinearScanMaxTargets) {
    set_.insert(targets.begin(), targets.end());
  }
}

double RecallAtK(std::span<const uint32_t> ranked,
                 const std::unordered_set<uint32_t>& relevant, int k) {
  return RecallAtKImpl(ranked, relevant, k);
}

double RecallAtK(std::span<const uint32_t> ranked, const TargetLookup& relevant,
                 int k) {
  return RecallAtKImpl(ranked, relevant, k);
}

double NdcgAtK(std::span<const uint32_t> ranked,
               const std::unordered_set<uint32_t>& relevant, int k) {
  return NdcgAtKImpl(ranked, relevant, k);
}

double NdcgAtK(std::span<const uint32_t> ranked, const TargetLookup& relevant,
               int k) {
  return NdcgAtKImpl(ranked, relevant, k);
}

}  // namespace taxorec
