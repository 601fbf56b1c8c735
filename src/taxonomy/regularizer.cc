#include "taxonomy/regularizer.h"

#include <vector>

#include "common/check.h"
#include "hyperbolic/poincare.h"
#include "math/vec_ops.h"

namespace taxorec {
namespace {

// Score-weighted Euclidean center of the node's member tags (a convex
// combination of ball points stays inside the ball).
bool NodeCenter(const Taxonomy::Node& node, const Matrix& tags,
                vec::Span center) {
  vec::Zero(center);
  double total = 0.0;
  for (size_t i = 0; i < node.member_tags.size(); ++i) {
    const double w = node.tag_scores[i];
    if (w <= 0.0) continue;
    vec::Axpy(w, tags.row(node.member_tags[i]), center);
    total += w;
  }
  if (total <= 0.0) return false;
  vec::Scale(center, 1.0 / total);
  return true;
}

}  // namespace

double TaxonomyRegLossAndGrad(const Taxonomy& taxo,
                              const Matrix& tags_poincare, double scale,
                              Matrix* grad, const RegularizerOptions& opts) {
  TAXOREC_CHECK(grad->rows() == tags_poincare.rows() &&
                grad->cols() == tags_poincare.cols());
  double loss = 0.0;
  const size_t d = tags_poincare.cols();
  std::vector<double> center(d);
  std::vector<double> grad_center(d);
  for (const auto& node : taxo.nodes()) {
    if (node.member_tags.size() < 2) continue;
    if (!NodeCenter(node, tags_poincare, vec::Span(center))) continue;
    double weight_total = 0.0;
    for (double w : node.tag_scores) weight_total += w > 0.0 ? w : 0.0;
    vec::Zero(vec::Span(grad_center));
    // One pair (t, c) per member: the loss and both gradients share its
    // terms, and ||c||^2 is shared by the node.
    const vec::ConstSpan c(center);
    const double center_sq = vec::SqNorm(c);
    for (uint32_t t : node.member_tags) {
      const vec::ConstSpan row = tags_poincare.row(t);
      const poincare::PairTerms terms(vec::SqNorm(row), center_sq,
                                      vec::SqDist(row, c));
      const double dot = vec::Dot(row, c);
      loss += terms.Distance();
      terms.AddGradX(row, c, dot, scale, grad->row(t));
      if (!opts.center_stop_gradient) {
        // d d(t, c)/dc accumulated once per member, then distributed
        // through c = sum_j w_j T_j / sum w.
        terms.AddGradY(row, c, dot, scale, vec::Span(grad_center));
      }
    }
    if (!opts.center_stop_gradient && weight_total > 0.0) {
      for (size_t i = 0; i < node.member_tags.size(); ++i) {
        const double w = node.tag_scores[i];
        if (w <= 0.0) continue;
        vec::Axpy(w / weight_total, vec::ConstSpan(grad_center),
                  grad->row(node.member_tags[i]));
      }
    }
  }
  return loss;
}

}  // namespace taxorec
