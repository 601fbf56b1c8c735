// Taxonomy-aware regularization objective L^reg (Eq. 8).
//
// For every node G_k of the taxonomy, every member tag is pulled toward the
// score-weighted (Euclidean convex) center of the node's tag embeddings
// under the Poincaré distance. Deep, fine-grained tags appear in more node
// sets along their path and are therefore regularized more strongly than
// general tags — the positive level/regularization correlation the paper
// describes.
#ifndef TAXOREC_TAXONOMY_REGULARIZER_H_
#define TAXOREC_TAXONOMY_REGULARIZER_H_

#include "math/matrix.h"
#include "taxonomy/tree.h"

namespace taxorec {

struct RegularizerOptions {
  /// When true (default), the weighted centers are treated as constants
  /// during differentiation (recomputed every call); when false, gradients
  /// also flow through the center to every member tag (design ablation).
  bool center_stop_gradient = true;
};

/// Computes L^reg and accumulates scale * dL/dT (Euclidean gradients w.r.t.
/// the Poincaré coordinates) into grad (same shape as tags_poincare).
double TaxonomyRegLossAndGrad(const Taxonomy& taxo,
                              const Matrix& tags_poincare, double scale,
                              Matrix* grad,
                              const RegularizerOptions& opts = {});

}  // namespace taxorec

#endif  // TAXOREC_TAXONOMY_REGULARIZER_H_
