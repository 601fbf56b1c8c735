// Top-down taxonomy construction (Algorithm 1 applied recursively).
//
// Starting from the root set of all tags, each node is split into K
// clusters by Poincaré K-means; tags whose representation-aware score
// (Eq. 7) falls below delta are pushed back up ("general" tags stay at the
// parent) and the remaining tags are re-clustered until the subset is
// stable. Non-empty clusters become children and are split recursively
// until depth 4 or min_node_size is reached.
#ifndef TAXOREC_TAXONOMY_BUILDER_H_
#define TAXOREC_TAXONOMY_BUILDER_H_

#include "math/csr.h"
#include "math/matrix.h"
#include "math/rng.h"
#include "taxonomy/poincare_kmeans.h"
#include "taxonomy/tree.h"

namespace taxorec {

struct TaxonomyBuildConfig {
  int K = 3;             // clusters per split (paper grid: {2,3,4})
  double delta = 0.5;    // tag score threshold (paper grid: {.25,.5,.75})
  size_t min_node_size = 4;  // do not split smaller nodes
  uint64_t seed = 7;
  KMeansOptions kmeans;
  /// When false, skips the score-based push-up (plain recursive K-means) —
  /// the design ablation of DESIGN.md §4.
  bool adaptive = true;
};

/// Builds a taxonomy from the current Poincaré tag embeddings and the
/// item-tag matrix. `tag_items` must be item_tags.Transposed().
Taxonomy BuildTaxonomy(const Matrix& tag_embeddings,
                       const CsrMatrix& item_tags, const CsrMatrix& tag_items,
                       const TaxonomyBuildConfig& config);

}  // namespace taxorec

#endif  // TAXOREC_TAXONOMY_BUILDER_H_
