// Lorentz (hyperboloid) model of hyperbolic space (curvature -1).
//
// H^d = { x in R^{d+1} : <x,x>_L = -1, x_0 > 0 } with the Lorentzian inner
// product <x,y>_L = -x_0 y_0 + sum_i x_i y_i. (The paper's §III-B writes the
// constraint as <x,x>_L = 1 — a typo; the standard hyperboloid constraint,
// which makes its own distance formula d = acosh(-<x,y>_L) well-defined,
// is <x,x>_L = -1, and that is what we implement.)
//
// Used for user/item embeddings and metric learning (§IV-D): distances,
// squared-distance gradients, exp/log maps at the origin (Eq. 12, 15),
// the general exp map for RSGD (Eq. 23), and tangent projection (Eq. 20
// analogue for the Lorentz metric).
#ifndef TAXOREC_HYPERBOLIC_LORENTZ_H_
#define TAXOREC_HYPERBOLIC_LORENTZ_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "math/rng.h"

namespace taxorec::lorentz {

using Span = std::span<double>;
using ConstSpan = std::span<const double>;

/// Lorentzian inner product <x, y>_L = -x0*y0 + sum_{i>=1} xi*yi.
double Inner(ConstSpan x, ConstSpan y);

/// Writes the origin o = (1, 0, ..., 0).
void Origin(Span o);

/// Recomputes x0 = sqrt(1 + ||x_spatial||^2) so x lies exactly on the
/// hyperboloid. This is the guard entry point for the Lorentz model: every
/// RSGD update (lorentz::RsgdStep and optim::LorentzRsgdUpdate) must end
/// with it so one drifting step cannot leave acosh's domain for the rest
/// of the run.
void ProjectToHyperboloid(Span x);

/// Hyperboloid constraint residual <x,x>_L + 1 (zero on-manifold). Used by
/// the HealthMonitor to detect off-manifold drift: |residual| beyond a
/// tolerance means x escaped the guard projections.
double ConstraintResidual(ConstSpan x);

/// Lifts spatial coordinates z in R^d onto the hyperboloid point
/// (sqrt(1+||z||^2), z). out has size d+1.
void LiftFromSpatial(ConstSpan z, Span out);

/// Distance d_H(x, y) = acosh(-<x,y>_L).
double Distance(ConstSpan x, ConstSpan y);

/// Squared distance d_H(x, y)^2.
double SqDistance(ConstSpan x, ConstSpan y);

/// A lower bound on SqDistance from beta = -<x,y>_L alone: the chord of
/// f(beta) = acosh(max(1, beta))^2 between the grid points around beta,
/// B_k = 2^e (1 + j/16) with k = 16e + j, e = 0 ... 63. With beta = cosh t,
/// f' = 2t / sinh t decreases, so f is concave and every chord lies below
/// it. beta < 1 clamps to 1 (bound 0), beta >= 2^64 to 2^64 (f increases,
/// so the last value still bounds it), and a NaN beta gives a NaN bound.
/// Times kSqDistanceBoundCushion it is at most SqDistance as rounded:
/// the table and chord rounding is a few ulp (DESIGN.md §10, "The exact
/// bound"). The AVX2 form is hyperbolic/lorentz_avx2.h.
double SqDistanceLowerBound(double beta);

/// The factor that keeps SqDistanceLowerBound's rounding in hand.
inline constexpr double kSqDistanceBoundCushion = 1.0 - 1e-9;

/// The chord table behind SqDistanceLowerBound, built once from std::acosh
/// on first use: value[k] = f(B_k) as SqDistance rounds it, slope[k] the
/// chord slope on [B_k, B_{k+1}], and the last entry B_1024 = 2^64 with
/// slope 0. A beta in [1, 2^64] indexes it by its bits >> 48 minus
/// kIndexBase, and its B_k is beta with the low 48 bits cleared, so
/// beta - B_k is exact.
struct SqDistanceChords {
  static constexpr size_t kSize = 1025;
  static constexpr double kTop = 0x1p64;
  static constexpr uint64_t kIndexBase = 0x3FF0;
  static constexpr uint64_t kGridMask = ~((uint64_t{1} << 48) - 1);
  alignas(64) double value[kSize];
  alignas(64) double slope[kSize];
};
const SqDistanceChords& SqDistanceChordTable();

/// Euclidean gradients of SqDistance(x, y): accumulates
/// grad_x += scale * d(d^2)/dx and grad_y += scale * d(d^2)/dy.
/// Either output may be empty (size 0) to skip it.
void SqDistanceGrad(ConstSpan x, ConstSpan y, double scale, Span grad_x,
                    Span grad_y);

/// Projects a Euclidean gradient at x onto the tangent space T_x H^d,
/// producing the Riemannian gradient: h = G * grad_E (G = diag(-1,1,..,1)),
/// grad_R = h + <x,h>_L x. In place.
void EuclideanToRiemannianGrad(ConstSpan x, Span grad);

/// Exponential map at x for a tangent vector eta (Eq. 23):
/// exp_x(eta) = cosh(||eta||_L) x + sinh(||eta||_L) eta/||eta||_L.
/// out may alias x or eta: the norm is reduced before the element-wise
/// write.
void ExpMap(ConstSpan x, ConstSpan eta, Span out);

/// Riemannian SGD step: x <- exp_x(-lr * grad_R), from a Euclidean gradient;
/// re-projects onto the hyperboloid. Allocates nothing: `grad` is consumed
/// as the tangent-step scratch (it holds the capped step on return) and the
/// step is written into x in place, bit for bit what the same chain through
/// a separate ExpMap output would give. grad must not alias x.
void RsgdStep(Span x, Span grad, double lr);

/// Log map at the origin (Eq. 12): maps a hyperboloid point x to the tangent
/// space at o. Output has the same d+1 layout with out[0] == 0.
void LogMapOrigin(ConstSpan x, Span out);

/// Exp map at the origin (Eq. 15): maps a tangent vector z (z[0] == 0
/// expected) back to the hyperboloid.
void ExpMapOrigin(ConstSpan z, Span out);

/// Random point: Gaussian spatial coordinates of stddev `stddev`, lifted.
void RandomPoint(Rng* rng, double stddev, Span x);

}  // namespace taxorec::lorentz

#endif  // TAXOREC_HYPERBOLIC_LORENTZ_H_
