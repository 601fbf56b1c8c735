// Poincaré ball model of hyperbolic space (curvature -1).
//
// P^d = { x in R^d : ||x|| < 1 }. Used for tag embeddings and taxonomy
// construction (§IV-C of the paper): distances, the Möbius exponential map
// used by Riemannian SGD (Eq. 21–22), and the closed-form distance gradient
// from Nickel & Kiela (2017).
#ifndef TAXOREC_HYPERBOLIC_POINCARE_H_
#define TAXOREC_HYPERBOLIC_POINCARE_H_

#include <span>

#include "math/rng.h"

namespace taxorec::poincare {

using Span = std::span<double>;
using ConstSpan = std::span<const double>;

/// Points are kept at Euclidean norm <= 1 - kBallEps for stability.
inline constexpr double kBallEps = 1e-5;

/// Floor on the conformal terms (1 - ||x||^2) of the distance and its
/// gradient, so both stay finite for a point on or past the boundary.
inline constexpr double kAlphaFloor = 1e-10;

/// Rescales x into the ball of radius 1 - kBallEps if it escaped. This is
/// the guard entry point for the Poincaré model: every RSGD update
/// (poincare::RsgdStep and optim::PoincareRsgdUpdate) must end with it so
/// one drifting step cannot push a point to the boundary where distances
/// and gradients blow up. The HealthMonitor flags rows whose norm exceeds
/// 1 - kBallEps (plus rounding slack) as off-manifold drift.
void ProjectToBall(Span x);

/// The shared-term kernel of Distance and DistanceGradX. From one pair's
/// reductions ||x||^2, ||y||^2 and ||x-y||^2 it forms the floored conformal
/// terms a_x = max(1 - ||x||^2, kAlphaFloor) and a_y and
/// gamma = 1 + 2||x-y||^2 / (a_x a_y), so d_P(x, y) = acosh(gamma). The
/// gradients on both sides of the pair need only <x, y> more. Distance and
/// DistanceGradX run it on fresh reductions; a caller that already holds
/// them computes each once and gets the same bits: the tag warm-up, whose
/// two pairs share ||t1||^2 and need all four gradients, and the taxonomy
/// regularizer, whose pairs share their node center.
class PairTerms {
 public:
  PairTerms(double x_sq, double y_sq, double sq_dist);

  /// d_P(x, y) = acosh(max(gamma, 1)).
  double Distance() const;
  /// grad_x += scale * d d_P(x, y) / dx, with xy = <x, y>.
  void AddGradX(ConstSpan x, ConstSpan y, double xy, double scale,
                Span grad_x) const;
  /// grad_y += scale * d d_P(x, y) / dy, with xy = <x, y>.
  void AddGradY(ConstSpan x, ConstSpan y, double xy, double scale,
                Span grad_y) const;

 private:
  double x_sq_, y_sq_;
  double alpha_x_, alpha_y_;
  double gamma_;
};

/// Poincaré distance d_P(x, y) = acosh(1 + 2||x-y||^2 / ((1-||x||^2)(1-||y||^2))).
double Distance(ConstSpan x, ConstSpan y);

/// Euclidean gradient of Distance(x, y) with respect to x, accumulated as
/// grad_x += scale * d Distance / d x. (Nickel & Kiela 2017, Eq. 4.)
void DistanceGradX(ConstSpan x, ConstSpan y, double scale, Span grad_x);

/// Möbius addition x ⊕ y (Eq. 22). out may alias x or y: the reductions
/// finish before the element-wise write.
void MobiusAdd(ConstSpan x, ConstSpan y, Span out);

/// Möbius exponential map exp_x(eta) = x ⊕ (tanh(||eta||/2) eta/||eta||)
/// (Eq. 21). Result is projected back into the ball. The Möbius summand is
/// built in `out`, so out may alias eta but not x.
void ExpMap(ConstSpan x, ConstSpan eta, Span out);

/// Conformal factor scaling: converts a Euclidean gradient at x into the
/// Riemannian gradient, grad_R = ((1 - ||x||^2)^2 / 4) * grad_E, in place.
void EuclideanToRiemannianGrad(ConstSpan x, Span grad);

/// Riemannian SGD step: x <- exp_x(-lr * grad_R(x)), where grad is the
/// *Euclidean* gradient (converted internally). Projects to the ball.
/// Allocates nothing: `grad` is consumed as the tangent-step scratch (it
/// holds the Möbius summand on return) and the step is written into x in
/// place, bit for bit what EuclideanToRiemannianGrad, a -lr scale and
/// ExpMap into a separate row would give. grad must not alias x.
void RsgdStep(Span x, Span grad, double lr);

/// Fills x with a uniform point in the ball of radius `radius`
/// (component-wise Gaussian direction, norm ~ U^(1/d) * radius).
void RandomPoint(Rng* rng, double radius, Span x);

}  // namespace taxorec::poincare

#endif  // TAXOREC_HYPERBOLIC_POINCARE_H_
