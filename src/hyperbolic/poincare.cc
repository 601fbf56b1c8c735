#include "hyperbolic/poincare.h"

#include <cmath>

#include "common/check.h"
#include "math/vec_ops.h"

namespace taxorec::poincare {
namespace {

// acosh'(z) = 1/sqrt(z^2-1) blows up at z=1; floor the radicand.
constexpr double kAcoshRadicandFloor = 1e-15;
// exp_x(eta) leaves x where it is below this tangent norm.
constexpr double kMinStepNorm = 1e-15;

double FlooredAlpha(double sq_norm) {
  const double a = 1.0 - sq_norm;
  return a < kAlphaFloor ? kAlphaFloor : a;
}

// grad_p += scale * d d_P(p, q) / dp (Nickel & Kiela 2017, Eq. 4) from the
// pair's floored conformal terms alpha (of p) and beta (of q), ||q||^2,
// <p, q> and gamma.
void AddDistanceGrad(ConstSpan p, ConstSpan q, double alpha, double beta,
                     double q_sq, double pq, double gamma, double scale,
                     Span grad_p) {
  TAXOREC_DCHECK(p.size() == q.size() && p.size() == grad_p.size());
  double radicand = gamma * gamma - 1.0;
  if (radicand < kAcoshRadicandFloor) radicand = kAcoshRadicandFloor;
  const double c = 4.0 / (beta * std::sqrt(radicand));
  const double cx = (q_sq - 2.0 * pq + 1.0) / (alpha * alpha);
  const double cy = -1.0 / alpha;
  for (size_t i = 0; i < p.size(); ++i) {
    grad_p[i] += scale * c * (cx * p[i] + cy * q[i]);
  }
}

// Factor that turns a Euclidean gradient at a point with ||x||^2 = x_sq
// into the Riemannian one: (1 - ||x||^2)^2 / 4, floored.
double RiemannianScale(double x_sq) {
  const double a = FlooredAlpha(x_sq);
  return a * a / 4.0;
}

// Scale of the Möbius summand tanh(n/2) eta/n of exp_x(eta), n = ||eta||.
double SummandScale(double n) { return std::tanh(n / 2.0) / n; }

// x ⊕ y = cx x + cy y (Eq. 22), from <x, y>, ||x||^2 and ||y||^2.
struct MobiusCoefficients {
  MobiusCoefficients(double xy, double x_sq, double y_sq) {
    double den = 1.0 + 2.0 * xy + x_sq * y_sq;
    if (std::abs(den) < 1e-15) den = den < 0 ? -1e-15 : 1e-15;
    cx = (1.0 + 2.0 * xy + y_sq) / den;
    cy = (1.0 - x_sq) / den;
  }
  double cx, cy;
};

// Rescales x, of Euclidean norm n, into the ball of radius 1 - kBallEps if
// it escaped.
void RescaleIntoBall(Span x, double n) {
  const double max_norm = 1.0 - kBallEps;
  if (n > max_norm) vec::Scale(x, max_norm / n);
}

}  // namespace

void ProjectToBall(Span x) { RescaleIntoBall(x, vec::Norm(x)); }

PairTerms::PairTerms(double x_sq, double y_sq, double sq_dist)
    : x_sq_(x_sq),
      y_sq_(y_sq),
      alpha_x_(FlooredAlpha(x_sq)),
      alpha_y_(FlooredAlpha(y_sq)),
      gamma_(1.0 + 2.0 * sq_dist / (alpha_x_ * alpha_y_)) {}

double PairTerms::Distance() const {
  return std::acosh(gamma_ < 1.0 ? 1.0 : gamma_);
}

void PairTerms::AddGradX(ConstSpan x, ConstSpan y, double xy, double scale,
                         Span grad_x) const {
  AddDistanceGrad(x, y, alpha_x_, alpha_y_, y_sq_, xy, gamma_, scale,
                  grad_x);
}

void PairTerms::AddGradY(ConstSpan x, ConstSpan y, double xy, double scale,
                         Span grad_y) const {
  AddDistanceGrad(y, x, alpha_y_, alpha_x_, x_sq_, xy, gamma_, scale,
                  grad_y);
}

double Distance(ConstSpan x, ConstSpan y) {
  return PairTerms(vec::SqNorm(x), vec::SqNorm(y), vec::SqDist(x, y))
      .Distance();
}

void DistanceGradX(ConstSpan x, ConstSpan y, double scale, Span grad_x) {
  PairTerms(vec::SqNorm(x), vec::SqNorm(y), vec::SqDist(x, y))
      .AddGradX(x, y, vec::Dot(x, y), scale, grad_x);
}

void MobiusAdd(ConstSpan x, ConstSpan y, Span out) {
  TAXOREC_DCHECK(x.size() == y.size() && x.size() == out.size());
  const MobiusCoefficients m(vec::Dot(x, y), vec::SqNorm(x), vec::SqNorm(y));
  vec::Combine(m.cx, x, m.cy, y, out);
}

void ExpMap(ConstSpan x, ConstSpan eta, Span out) {
  TAXOREC_DCHECK(x.size() == eta.size() && x.size() == out.size());
  const double n = vec::Norm(eta);
  if (n < kMinStepNorm) {
    vec::Copy(x, out);
  } else {
    vec::ScaleTo(eta, SummandScale(n), out);
    MobiusAdd(x, out, out);
  }
  ProjectToBall(out);
}

void EuclideanToRiemannianGrad(ConstSpan x, Span grad) {
  vec::Scale(grad, RiemannianScale(vec::SqNorm(x)));
}

void RsgdStep(Span x, Span grad, double lr) {
  TAXOREC_DCHECK(x.size() == grad.size());
  // EuclideanToRiemannianGrad, the -lr scale and ExpMap as one routine:
  // ||x||^2 is reduced once for the conformal factor and the Möbius sum,
  // and each other sum rides on the pass that writes its operands. Every
  // sum runs in index order, as the vec:: reductions do, so the step has
  // the bits of the helper chain.
  const size_t d = x.size();
  const double x_sq = vec::SqNorm(x);
  const double riemannian = RiemannianScale(x_sq);
  double eta_sq = 0.0;
  for (size_t i = 0; i < d; ++i) {
    grad[i] *= riemannian;
    grad[i] *= -lr;
    eta_sq += grad[i] * grad[i];
  }
  const double n = std::sqrt(eta_sq);
  if (n < kMinStepNorm) {
    RescaleIntoBall(x, std::sqrt(x_sq));
    return;
  }
  const double s = SummandScale(n);
  double xy = 0.0, y_sq = 0.0;
  for (size_t i = 0; i < d; ++i) {
    grad[i] = s * grad[i];
    xy += x[i] * grad[i];
    y_sq += grad[i] * grad[i];
  }
  const MobiusCoefficients m(xy, x_sq, y_sq);
  double out_sq = 0.0;
  for (size_t i = 0; i < d; ++i) {
    x[i] = m.cx * x[i] + m.cy * grad[i];
    out_sq += x[i] * x[i];
  }
  RescaleIntoBall(x, std::sqrt(out_sq));
}

void RandomPoint(Rng* rng, double radius, Span x) {
  TAXOREC_CHECK(radius > 0.0 && radius < 1.0);
  for (double& v : x) v = rng->NextGaussian();
  const double n = vec::Norm(x);
  if (n < 1e-15) {
    vec::Zero(x);
    return;
  }
  const double d = static_cast<double>(x.size());
  const double target = radius * std::pow(rng->NextDouble(), 1.0 / d);
  vec::Scale(x, target / n);
}

}  // namespace taxorec::poincare
