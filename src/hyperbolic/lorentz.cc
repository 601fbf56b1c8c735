#include "hyperbolic/lorentz.h"

#include <bit>
#include <cmath>

#include "common/check.h"
#include "math/vec_ops.h"

namespace taxorec::lorentz {
namespace {

// d/sqrt(beta^2-1) -> 1 as beta -> 1+; switch to the limit below this point.
constexpr double kBetaNearOne = 1.0 + 1e-9;

// Returns beta = -<x,y>_L clamped to >= 1 (numerically x, y on-manifold
// guarantee beta >= 1; rounding can dip below).
double SafeBeta(ConstSpan x, ConstSpan y) {
  const double beta = -Inner(x, y);
  return beta < 1.0 ? 1.0 : beta;
}

// ExpMap given eta_sq = <eta, eta>_L.
void ExpMapWithSqNorm(ConstSpan x, ConstSpan eta, double eta_sq, Span out) {
  if (eta_sq < 0.0) eta_sq = 0.0;  // Tangent vectors have non-negative norm.
  const double n = std::sqrt(eta_sq);
  if (n < 1e-15) {
    vec::Copy(x, out);
    return;
  }
  const double ch = std::cosh(n);
  const double sh_over_n = std::sinh(n) / n;
  for (size_t i = 0; i < x.size(); ++i) {
    out[i] = ch * x[i] + sh_over_n * eta[i];
  }
}

}  // namespace

double Inner(ConstSpan x, ConstSpan y) {
  TAXOREC_DCHECK(x.size() == y.size() && !x.empty());
  double acc = -x[0] * y[0];
  for (size_t i = 1; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

void Origin(Span o) {
  vec::Zero(o);
  o[0] = 1.0;
}

void ProjectToHyperboloid(Span x) {
  TAXOREC_DCHECK(!x.empty());
  double sq = 0.0;
  for (size_t i = 1; i < x.size(); ++i) sq += x[i] * x[i];
  x[0] = std::sqrt(1.0 + sq);
}

double ConstraintResidual(ConstSpan x) {
  return Inner(x, x) + 1.0;
}

void LiftFromSpatial(ConstSpan z, Span out) {
  TAXOREC_DCHECK(out.size() == z.size() + 1);
  for (size_t i = 0; i < z.size(); ++i) out[i + 1] = z[i];
  ProjectToHyperboloid(out);
}

double Distance(ConstSpan x, ConstSpan y) {
  return std::acosh(SafeBeta(x, y));
}

double SqDistance(ConstSpan x, ConstSpan y) {
  const double d = Distance(x, y);
  return d * d;
}

double SqDistanceLowerBound(double beta) {
  using C = SqDistanceChords;
  const SqDistanceChords& t = SqDistanceChordTable();
  // The AVX2 form's operations in its operand order (lorentz_avx2.h):
  // max(x, y) = x > y ? x : y and min(x, y) = x < y ? x : y return y when
  // either is NaN, so b keeps a NaN beta and the index copy s drops it.
  const double lo = 1.0 > beta ? 1.0 : beta;
  const double b = C::kTop < lo ? C::kTop : lo;
  const double hi = beta > 1.0 ? beta : 1.0;
  const double s = hi < C::kTop ? hi : C::kTop;
  const uint64_t bits = std::bit_cast<uint64_t>(s);
  const size_t k = static_cast<size_t>((bits >> 48) - C::kIndexBase);
  const double grid = std::bit_cast<double>(bits & C::kGridMask);
  return t.value[k] + t.slope[k] * (b - grid);
}

const SqDistanceChords& SqDistanceChordTable() {
  static const SqDistanceChords table = [] {
    constexpr size_t n = SqDistanceChords::kSize;
    SqDistanceChords t;
    double grid[n];
    for (size_t k = 0; k < n; ++k) {
      grid[k] = std::ldexp(1.0 + static_cast<double>(k % 16) / 16.0,
                           static_cast<int>(k / 16));
      const double d = std::acosh(grid[k]);  // SqDistance's rounding
      t.value[k] = d * d;
    }
    for (size_t k = 0; k + 1 < n; ++k) {
      t.slope[k] = (t.value[k + 1] - t.value[k]) / (grid[k + 1] - grid[k]);
    }
    t.slope[n - 1] = 0.0;
    return t;
  }();
  return table;
}

void SqDistanceGrad(ConstSpan x, ConstSpan y, double scale, Span grad_x,
                    Span grad_y) {
  const double beta = SafeBeta(x, y);
  double ratio;  // d / sqrt(beta^2 - 1), limit 1 at beta = 1.
  if (beta < kBetaNearOne) {
    ratio = 1.0;
  } else {
    ratio = std::acosh(beta) / std::sqrt(beta * beta - 1.0);
  }
  const double c = -2.0 * ratio * scale;
  // d(d^2)/dx = c * G y,  G = diag(-1, 1, ..., 1).
  if (!grad_x.empty()) {
    TAXOREC_DCHECK(grad_x.size() == x.size());
    grad_x[0] += c * (-y[0]);
    for (size_t i = 1; i < x.size(); ++i) grad_x[i] += c * y[i];
  }
  if (!grad_y.empty()) {
    TAXOREC_DCHECK(grad_y.size() == y.size());
    grad_y[0] += c * (-x[0]);
    for (size_t i = 1; i < y.size(); ++i) grad_y[i] += c * x[i];
  }
}

void EuclideanToRiemannianGrad(ConstSpan x, Span grad) {
  TAXOREC_DCHECK(x.size() == grad.size() && !x.empty());
  // h = G * grad_E.
  grad[0] = -grad[0];
  // grad_R = h + <x,h>_L x.
  const double xh = Inner(x, grad);
  for (size_t i = 0; i < x.size(); ++i) grad[i] += xh * x[i];
}

void ExpMap(ConstSpan x, ConstSpan eta, Span out) {
  TAXOREC_DCHECK(x.size() == eta.size() && x.size() == out.size());
  ExpMapWithSqNorm(x, eta, Inner(eta, eta), out);
}

void RsgdStep(Span x, Span grad, double lr) {
  TAXOREC_DCHECK(x.size() == grad.size() && !x.empty());
  // The step's squared length rides on the pass that scales it by -lr, in
  // Inner's order, and ExpMap reuses it unless the cap rescales the step.
  EuclideanToRiemannianGrad(x, grad);
  grad[0] *= -lr;
  double step_sq = -grad[0] * grad[0];
  for (size_t i = 1; i < x.size(); ++i) {
    grad[i] *= -lr;
    step_sq += grad[i] * grad[i];
  }
  // Cap the tangent step length: the tangent projection can amplify an
  // already-clipped Euclidean gradient when x is far from the origin, and
  // cosh of a large step overflows within a few iterations.
  constexpr double kMaxStepLength = 1.0;
  if (step_sq > kMaxStepLength * kMaxStepLength) {
    vec::Scale(grad, kMaxStepLength / std::sqrt(step_sq));
    step_sq = Inner(grad, grad);
  }
  ExpMapWithSqNorm(x, grad, step_sq, x);
  ProjectToHyperboloid(x);
}

void LogMapOrigin(ConstSpan x, Span out) {
  TAXOREC_DCHECK(x.size() == out.size() && !x.empty());
  double spatial_sq = 0.0;
  for (size_t i = 1; i < x.size(); ++i) spatial_sq += x[i] * x[i];
  const double spatial_norm = std::sqrt(spatial_sq);
  out[0] = 0.0;
  if (spatial_norm < 1e-15) {
    for (size_t i = 1; i < out.size(); ++i) out[i] = 0.0;
    return;
  }
  const double x0 = x[0] < 1.0 ? 1.0 : x[0];
  const double r = std::acosh(x0);
  const double s = r / spatial_norm;
  for (size_t i = 1; i < x.size(); ++i) out[i] = s * x[i];
}

void ExpMapOrigin(ConstSpan z, Span out) {
  TAXOREC_DCHECK(z.size() == out.size() && !z.empty());
  double spatial_sq = 0.0;
  for (size_t i = 1; i < z.size(); ++i) spatial_sq += z[i] * z[i];
  const double r = std::sqrt(spatial_sq);
  if (r < 1e-15) {
    Origin(out);
    for (size_t i = 1; i < z.size(); ++i) out[i] = z[i];
    return;
  }
  out[0] = std::cosh(r);
  const double s = std::sinh(r) / r;
  for (size_t i = 1; i < z.size(); ++i) out[i] = s * z[i];
}

void RandomPoint(Rng* rng, double stddev, Span x) {
  TAXOREC_DCHECK(!x.empty());
  for (size_t i = 1; i < x.size(); ++i) x[i] = stddev * rng->NextGaussian();
  ProjectToHyperboloid(x);
}

}  // namespace taxorec::lorentz
