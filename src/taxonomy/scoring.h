// Representation-aware scoring function (Eq. 4–7 of the paper).
//
// Given a candidate partition {G_1..G_K} of a tag set, computes
// s(t, G_k) = sqrt(con(t, G_k) * stru(t, G_k)) for every tag of every
// cluster, where con is the normalized tag frequency in the cluster's item
// set E_k (Eq. 4) and stru is a softmax over BM25-style relevance scores of
// t against each sibling's item set (Eq. 5–6).
//
// E_k construction: the paper says "each E_k is a set of items corresponding
// to the tag set G_k". Following the TaxoGen lineage it cites, we *partition*
// the items across the sibling clusters (each item goes to the cluster with
// the largest idf-weighted tag overlap). This makes general tags — which
// spread over every sibling's item set — receive a diluted stru of roughly
// 1/K while cluster-specific tags approach sigmoid(rank), which is exactly
// the separation Algorithm 1's threshold δ≈0.5 exploits.
#ifndef TAXOREC_TAXONOMY_SCORING_H_
#define TAXOREC_TAXONOMY_SCORING_H_

#include <cstdint>
#include <vector>

#include "math/csr.h"

namespace taxorec {

/// Precomputed views of the item-tag relation used by scoring.
struct TagScoringContext {
  /// item × tag membership.
  const CsrMatrix* item_tags = nullptr;
  /// tag × item transpose.
  const CsrMatrix* tag_items = nullptr;
};

/// Scores every tag of every cluster. partition[k] lists the tags of G_k;
/// result[k][i] is s(partition[k][i], G_k) in [0, ~1]. When `stru_out` is
/// non-null it receives the raw structure factors stru(t, G_k) (Eq. 5),
/// which the builder uses for the general-tag push-up decision: stru is the
/// factor that distinguishes "concentrated in this cluster" from "spread
/// across all siblings", whereas the combined s is dominated by the
/// log-frequency con factor at small corpus sizes (see DESIGN.md §4).
std::vector<std::vector<double>> ScorePartition(
    const TagScoringContext& ctx,
    const std::vector<std::vector<uint32_t>>& partition,
    std::vector<std::vector<double>>* stru_out = nullptr);

}  // namespace taxorec

#endif  // TAXOREC_TAXONOMY_SCORING_H_
