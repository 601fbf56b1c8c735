// Synthetic recommendation benchmark generator with a planted tag taxonomy.
//
// Substitutes for the paper's Ciao / Amazon-CD / Amazon-Book / Yelp datasets
// (not redistributable offline). The generator plants exactly the structure
// TaxoRec exploits, so the paper's qualitative claims are testable:
//   1. A random tag tree (the ground-truth taxonomy).
//   2. Items attached to a primary tag; each item is labeled with its
//      primary tag plus each ancestor independently (multi-level tagging,
//      as in Fig. 1's Hand Roll = {Asian food, Japanese food, Sushi}),
//      plus occasional noise tags.
//   3. Power-law item popularity.
//   4. Users with interests concentrated on 1..3 taxonomy subtrees; a
//      per-user tag-affinity mixes subtree-driven picks with
//      popularity-driven picks (this realizes the heterogeneity that the
//      personalized weight alpha_u of Eq. 16 models).
//   5. Sequential per-user timestamps so the 60/20/20 temporal split is
//      meaningful.
// Tag names encode the tree path ("T2.0.1" is a child of "T2.0"), making
// the Fig. 6 / Table V case studies human-checkable.
#ifndef TAXOREC_DATA_SYNTHETIC_H_
#define TAXOREC_DATA_SYNTHETIC_H_

#include <cstdint>

#include "data/dataset.h"

namespace taxorec {

struct SyntheticConfig {
  std::string name = "synthetic";
  uint64_t seed = 42;

  size_t num_users = 500;
  size_t num_items = 800;
  size_t num_tags = 60;

  /// Tree shape: children per internal node, +- jitter of 1.
  int branching = 3;
  /// Number of top-level (depth-1) subtree roots.
  int num_roots = 3;

  /// Probability that an item carries each ancestor of its primary tag.
  double ancestor_tag_prob = 0.8;
  /// Probability of one extra random (noise) tag per item.
  double noise_tag_prob = 0.1;

  /// Item popularity follows rank^(-popularity_alpha).
  double popularity_alpha = 0.8;

  /// Mean interactions per user (min enforced at 6 for splittable users).
  double mean_interactions_per_user = 25.0;
  /// Beta-like spread of the per-user tag affinity in [0,1]. Higher mean
  /// means more users are tag-driven.
  double tag_affinity_mean = 0.7;
};

/// Generates a dataset. Deterministic given the config (including seed).
Dataset GenerateSynthetic(const SyntheticConfig& config);

}  // namespace taxorec

#endif  // TAXOREC_DATA_SYNTHETIC_H_
