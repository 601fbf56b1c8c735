// Tests for the hyperbolic geometry substrate: model invariants, map
// round-trips, distance identities, and gradient checks against central
// finite differences (including near-boundary points).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "hyperbolic/klein.h"
#include "hyperbolic/lorentz.h"
#include "hyperbolic/maps.h"
#include "hyperbolic/poincare.h"
#include "math/rng.h"
#include "math/vec_ops.h"

namespace taxorec {
namespace {

constexpr double kTol = 1e-8;

std::vector<double> RandomBallPoint(Rng* rng, size_t d, double radius) {
  std::vector<double> x(d);
  poincare::RandomPoint(rng, radius, vec::Span(x));
  return x;
}

std::vector<double> RandomLorentzPoint(Rng* rng, size_t d, double stddev) {
  std::vector<double> x(d + 1);
  lorentz::RandomPoint(rng, stddev, vec::Span(x));
  return x;
}

// (1 - ||x||^2), floored as the library floors it near the boundary.
double PoincareAlpha(vec::ConstSpan x) {
  return std::max(1.0 - vec::SqNorm(x), 1e-10);
}

// Logarithmic map of the Poincaré ball at x: the tangent vector v with
// exp_x(v) = y, log_x(y) = (1 - ||x||^2) * atanh(||u||) * u/||u|| with
// u = (-x) ⊕ y. With PoincareGeodesic below it is the independent check
// of poincare::ExpMap against poincare::Distance.
void PoincareLogMap(vec::ConstSpan x, vec::ConstSpan y, vec::Span out) {
  std::vector<double> neg_x(x.size());
  vec::ScaleTo(x, -1.0, vec::Span(neg_x));
  std::vector<double> u(x.size());
  poincare::MobiusAdd(vec::ConstSpan(neg_x), y, vec::Span(u));
  double n = vec::Norm(u);
  if (n < 1e-15) {
    vec::Zero(out);
    return;
  }
  if (n > 1.0 - 1e-12) n = 1.0 - 1e-12;
  const double scale = PoincareAlpha(x) * std::atanh(n) / vec::Norm(u);
  vec::ScaleTo(vec::ConstSpan(u), scale, out);
}

// Point at parameter t ∈ [0,1] along the geodesic from x to y:
// geo(x, y, t) = exp_x(t * log_x(y)). t=0 → x, t=1 → y.
void PoincareGeodesic(vec::ConstSpan x, vec::ConstSpan y, double t,
                      vec::Span out) {
  std::vector<double> v(x.size());
  PoincareLogMap(x, y, vec::Span(v));
  vec::Scale(vec::Span(v), t);
  // ExpMap's tanh(||eta||/2) convention expects the tangent vector scaled
  // by the conformal factor lambda_x = 2/(1-||x||^2).
  vec::Scale(vec::Span(v), 2.0 / PoincareAlpha(x));
  poincare::ExpMap(x, vec::ConstSpan(v), out);
}

// Fail unless a and b hold the same doubles bit for bit.
void ExpectSameBits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b)) << what;
}

void ExpectSameBits(vec::ConstSpan a, vec::ConstSpan b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what;
}

// The Poincaré distance and its gradient written out term by term, one
// reduction per use: the bit-for-bit reference for poincare::PairTerms.
double ReferenceAlpha(vec::ConstSpan x) {
  const double a = 1.0 - vec::SqNorm(x);
  return a < poincare::kAlphaFloor ? poincare::kAlphaFloor : a;
}

double ReferenceDistance(vec::ConstSpan x, vec::ConstSpan y) {
  const double alpha = ReferenceAlpha(x);
  const double beta = ReferenceAlpha(y);
  const double arg = 1.0 + 2.0 * vec::SqDist(x, y) / (alpha * beta);
  return std::acosh(arg < 1.0 ? 1.0 : arg);
}

void ReferenceDistanceGradX(vec::ConstSpan x, vec::ConstSpan y, double scale,
                            vec::Span grad_x) {
  const double alpha = ReferenceAlpha(x);
  const double beta = ReferenceAlpha(y);
  const double gamma = 1.0 + 2.0 * vec::SqDist(x, y) / (alpha * beta);
  double radicand = gamma * gamma - 1.0;
  if (radicand < 1e-15) radicand = 1e-15;
  const double c = 4.0 / (beta * std::sqrt(radicand));
  const double cx =
      (vec::SqNorm(y) - 2.0 * vec::Dot(x, y) + 1.0) / (alpha * alpha);
  const double cy = -1.0 / alpha;
  for (size_t i = 0; i < x.size(); ++i) {
    grad_x[i] += scale * c * (cx * x[i] + cy * y[i]);
  }
}

// The two RSGD steps composed from the public helpers over separate
// buffers: the tangent vector in a copy of the gradient and the exp-map
// result in a buffer of its own (the Poincaré summand in a third), copied
// back into x. The in-place steps must match them bit for bit.
void ReferencePoincareRsgdStep(vec::Span x, vec::ConstSpan grad, double lr) {
  std::vector<double> eta(grad.begin(), grad.end());
  poincare::EuclideanToRiemannianGrad(x, vec::Span(eta));
  vec::Scale(vec::Span(eta), -lr);
  std::vector<double> out(x.size());
  const double n = vec::Norm(eta);
  if (n < 1e-15) {
    vec::Copy(x, vec::Span(out));
  } else {
    std::vector<double> y(x.size());
    vec::ScaleTo(eta, std::tanh(n / 2.0) / n, vec::Span(y));
    poincare::MobiusAdd(x, y, vec::Span(out));
  }
  poincare::ProjectToBall(vec::Span(out));
  vec::Copy(out, x);
}

void ReferenceLorentzRsgdStep(vec::Span x, vec::ConstSpan grad, double lr) {
  std::vector<double> eta(grad.begin(), grad.end());
  lorentz::EuclideanToRiemannianGrad(x, vec::Span(eta));
  vec::Scale(vec::Span(eta), -lr);
  const double step_sq = lorentz::Inner(eta, eta);
  if (step_sq > 1.0) vec::Scale(vec::Span(eta), 1.0 / std::sqrt(step_sq));
  std::vector<double> out(x.size());
  lorentz::ExpMap(x, eta, vec::Span(out));
  vec::Copy(out, x);
  lorentz::ProjectToHyperboloid(x);
}

// Unit-weight Einstein midpoint over every row of `points`.
std::vector<double> MidpointOfAllRows(const Matrix& points) {
  std::vector<uint32_t> idx(points.rows());
  std::iota(idx.begin(), idx.end(), 0u);
  const std::vector<double> weights(points.rows(), 1.0);
  std::vector<double> mid(points.cols());
  klein::EinsteinMidpoint(points, idx, weights, vec::Span(mid));
  return mid;
}

TEST(PoincareTest, DistanceIsMetricLike) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    auto x = RandomBallPoint(&rng, 6, 0.9);
    auto y = RandomBallPoint(&rng, 6, 0.9);
    auto z = RandomBallPoint(&rng, 6, 0.9);
    const double dxy = poincare::Distance(x, y);
    const double dyx = poincare::Distance(y, x);
    EXPECT_NEAR(dxy, dyx, 1e-10);            // Symmetry.
    EXPECT_GE(dxy, 0.0);                     // Non-negativity.
    EXPECT_NEAR(poincare::Distance(x, x), 0.0, 1e-9);
    EXPECT_LE(dxy, poincare::Distance(x, z) + poincare::Distance(z, y) +
                       1e-9);                // Triangle inequality.
  }
}

TEST(PoincareTest, DistanceGrowsTowardBoundary) {
  // Hyperbolic distance from origin diverges as ||x|| -> 1.
  std::vector<double> origin(4, 0.0);
  std::vector<double> x(4, 0.0);
  double prev = 0.0;
  for (double r : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    x[0] = r;
    const double d = poincare::Distance(origin, x);
    EXPECT_GT(d, prev);
    prev = d;
  }
  EXPECT_GT(prev, 7.0);  // d(0, 0.999) = 2*atanh(0.999) ≈ 7.6.
}

TEST(PoincareTest, DistanceFromOriginClosedForm) {
  // d(0, x) = 2 atanh(||x||).
  Rng rng(2);
  std::vector<double> origin(5, 0.0);
  for (int trial = 0; trial < 20; ++trial) {
    auto x = RandomBallPoint(&rng, 5, 0.95);
    const double expect = 2.0 * std::atanh(vec::Norm(x));
    EXPECT_NEAR(poincare::Distance(origin, x), expect, 1e-9);
  }
}

TEST(PoincareTest, DistanceGradMatchesFiniteDifference) {
  Rng rng(3);
  const double eps = 1e-6;
  for (double radius : {0.3, 0.8, 0.97}) {
    for (int trial = 0; trial < 10; ++trial) {
      auto x = RandomBallPoint(&rng, 5, radius);
      auto y = RandomBallPoint(&rng, 5, radius);
      if (vec::SqDist(x, y) < 1e-6) continue;
      std::vector<double> grad(5, 0.0);
      poincare::DistanceGradX(x, y, 1.0, vec::Span(grad));
      for (size_t i = 0; i < x.size(); ++i) {
        auto xp = x, xm = x;
        xp[i] += eps;
        xm[i] -= eps;
        const double fd =
            (poincare::Distance(xp, y) - poincare::Distance(xm, y)) /
            (2.0 * eps);
        EXPECT_NEAR(grad[i], fd, 1e-4 * std::max(1.0, std::abs(fd)))
            << "radius=" << radius << " i=" << i;
      }
    }
  }
}

TEST(PoincareTest, MobiusAddIdentityAndInverse) {
  Rng rng(4);
  auto x = RandomBallPoint(&rng, 4, 0.8);
  std::vector<double> zero(4, 0.0), out(4), neg(4);
  poincare::MobiusAdd(x, zero, vec::Span(out));
  for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(out[i], x[i], 1e-12);
  poincare::MobiusAdd(zero, x, vec::Span(out));
  for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(out[i], x[i], 1e-12);
  // x ⊕ (-x) = 0.
  vec::ScaleTo(x, -1.0, vec::Span(neg));
  poincare::MobiusAdd(x, neg, vec::Span(out));
  EXPECT_NEAR(vec::Norm(out), 0.0, 1e-10);
}

TEST(PoincareTest, ExpMapZeroIsIdentityAndStaysInBall) {
  Rng rng(5);
  auto x = RandomBallPoint(&rng, 4, 0.9);
  std::vector<double> eta(4, 0.0), out(4);
  poincare::ExpMap(x, eta, vec::Span(out));
  for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(out[i], x[i], 1e-12);
  // Large tangent vectors never escape the ball.
  for (int trial = 0; trial < 30; ++trial) {
    for (auto& e : eta) e = 10.0 * rng.NextGaussian();
    poincare::ExpMap(x, eta, vec::Span(out));
    EXPECT_LT(vec::Norm(out), 1.0);
  }
}

TEST(PoincareTest, RsgdStepDecreasesDistanceLoss) {
  // Minimizing d(x, y) over x by RSGD should walk x toward y.
  Rng rng(6);
  auto x = RandomBallPoint(&rng, 4, 0.5);
  auto y = RandomBallPoint(&rng, 4, 0.5);
  double prev = poincare::Distance(x, y);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<double> grad(4, 0.0);
    poincare::DistanceGradX(x, y, 1.0, vec::Span(grad));
    poincare::RsgdStep(vec::Span(x), grad, 0.05);
  }
  EXPECT_LT(poincare::Distance(x, y), prev * 0.5);
}

TEST(LorentzTest, RandomPointsSatisfyConstraint) {
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    auto x = RandomLorentzPoint(&rng, 6, 0.5);
    EXPECT_NEAR(lorentz::Inner(x, x), -1.0, 1e-9);
    EXPECT_GE(x[0], 1.0);
  }
}

TEST(LorentzTest, DistanceAgreesWithPoincareAfterMapping) {
  // d_L(x, y) must equal d_P(p(x), p(y)) — the models are isometric.
  Rng rng(8);
  for (int trial = 0; trial < 30; ++trial) {
    auto x = RandomLorentzPoint(&rng, 5, 1.0);
    auto y = RandomLorentzPoint(&rng, 5, 1.0);
    std::vector<double> px(5), py(5);
    hyper::LorentzToPoincare(x, vec::Span(px));
    hyper::LorentzToPoincare(y, vec::Span(py));
    EXPECT_NEAR(lorentz::Distance(x, y), poincare::Distance(px, py), 1e-7);
  }
}

TEST(LorentzTest, ExpLogOriginRoundTrip) {
  Rng rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    auto x = RandomLorentzPoint(&rng, 5, 1.0);
    std::vector<double> z(6), back(6);
    lorentz::LogMapOrigin(x, vec::Span(z));
    EXPECT_NEAR(z[0], 0.0, 1e-12);
    lorentz::ExpMapOrigin(z, vec::Span(back));
    for (size_t i = 0; i < 6; ++i) EXPECT_NEAR(back[i], x[i], 1e-9);
  }
}

TEST(LorentzTest, LogMapNormIsDistanceFromOrigin) {
  Rng rng(10);
  std::vector<double> o(6);
  lorentz::Origin(vec::Span(o));
  for (int trial = 0; trial < 20; ++trial) {
    auto x = RandomLorentzPoint(&rng, 5, 1.0);
    std::vector<double> z(6);
    lorentz::LogMapOrigin(x, vec::Span(z));
    EXPECT_NEAR(vec::Norm(z), lorentz::Distance(o, x), 1e-9);
  }
}

TEST(LorentzTest, SqDistanceGradMatchesFiniteDifference) {
  Rng rng(11);
  const double eps = 1e-6;
  for (int trial = 0; trial < 20; ++trial) {
    auto x = RandomLorentzPoint(&rng, 5, 1.0);
    auto y = RandomLorentzPoint(&rng, 5, 1.0);
    std::vector<double> gx(6, 0.0), gy(6, 0.0);
    lorentz::SqDistanceGrad(x, y, 1.0, vec::Span(gx), vec::Span(gy));
    for (size_t i = 0; i < 6; ++i) {
      auto xp = x, xm = x;
      xp[i] += eps;
      xm[i] -= eps;
      const double fd =
          (lorentz::SqDistance(xp, y) - lorentz::SqDistance(xm, y)) /
          (2.0 * eps);
      EXPECT_NEAR(gx[i], fd, 1e-4 * std::max(1.0, std::abs(fd)));
      auto yp = y, ym = y;
      yp[i] += eps;
      ym[i] -= eps;
      const double fdy =
          (lorentz::SqDistance(x, yp) - lorentz::SqDistance(x, ym)) /
          (2.0 * eps);
      EXPECT_NEAR(gy[i], fdy, 1e-4 * std::max(1.0, std::abs(fdy)));
    }
  }
}

TEST(LorentzTest, RsgdStepDecreasesDistanceLoss) {
  Rng rng(12);
  auto x = RandomLorentzPoint(&rng, 5, 0.7);
  auto y = RandomLorentzPoint(&rng, 5, 0.7);
  const double before = lorentz::SqDistance(x, y);
  for (int iter = 0; iter < 60; ++iter) {
    std::vector<double> g(6, 0.0);
    lorentz::SqDistanceGrad(x, y, 1.0, vec::Span(g), vec::Span{});
    lorentz::RsgdStep(vec::Span(x), g, 0.05);
    EXPECT_NEAR(lorentz::Inner(x, x), -1.0, 1e-8);  // Stays on manifold.
  }
  EXPECT_LT(lorentz::SqDistance(x, y), before * 0.25);
}

TEST(MapsTest, PoincareLorentzRoundTrip) {
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    auto p = RandomBallPoint(&rng, 5, 0.95);
    std::vector<double> lor(6), back(5);
    hyper::PoincareToLorentz(p, vec::Span(lor));
    EXPECT_NEAR(lorentz::Inner(lor, lor), -1.0, 1e-8);
    hyper::LorentzToPoincare(lor, vec::Span(back));
    for (size_t i = 0; i < 5; ++i) EXPECT_NEAR(back[i], p[i], 1e-10);
  }
}

TEST(MapsTest, PoincareKleinRoundTrip) {
  Rng rng(14);
  for (int trial = 0; trial < 30; ++trial) {
    auto p = RandomBallPoint(&rng, 5, 0.95);
    std::vector<double> k(5), back(5);
    hyper::PoincareToKlein(p, vec::Span(k));
    EXPECT_LT(vec::Norm(k), 1.0);
    hyper::KleinToPoincare(k, vec::Span(back));
    for (size_t i = 0; i < 5; ++i) EXPECT_NEAR(back[i], p[i], 1e-10);
  }
}

TEST(MapsTest, KleinToLorentzEqualsComposition) {
  Rng rng(15);
  for (int trial = 0; trial < 30; ++trial) {
    auto p = RandomBallPoint(&rng, 4, 0.9);
    std::vector<double> k(4);
    hyper::PoincareToKlein(p, vec::Span(k));
    std::vector<double> direct(5), via(5);
    hyper::KleinToLorentz(k, vec::Span(direct));
    std::vector<double> back(4);
    hyper::KleinToPoincare(k, vec::Span(back));
    hyper::PoincareToLorentz(back, vec::Span(via));
    for (size_t i = 0; i < 5; ++i) EXPECT_NEAR(direct[i], via[i], 1e-9);
  }
}

TEST(MapsTest, KleinToLorentzGradMatchesFiniteDifference) {
  Rng rng(16);
  const double eps = 1e-7;
  for (int trial = 0; trial < 20; ++trial) {
    auto k = RandomBallPoint(&rng, 4, 0.8);
    std::vector<double> upstream(5);
    for (auto& g : upstream) g = rng.NextGaussian();
    std::vector<double> grad(4, 0.0);
    hyper::KleinToLorentzGrad(k, upstream, 1.0, vec::Span(grad));
    for (size_t i = 0; i < 4; ++i) {
      auto kp = k, km = k;
      kp[i] += eps;
      km[i] -= eps;
      std::vector<double> op(5), om(5);
      hyper::KleinToLorentz(kp, vec::Span(op));
      hyper::KleinToLorentz(km, vec::Span(om));
      double fd = 0.0;
      for (size_t j = 0; j < 5; ++j) {
        fd += upstream[j] * (op[j] - om[j]) / (2.0 * eps);
      }
      EXPECT_NEAR(grad[i], fd, 1e-4 * std::max(1.0, std::abs(fd)));
    }
  }
}

TEST(KleinTest, LorentzFactorAtLeastOne) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    auto k = RandomBallPoint(&rng, 4, 0.99);
    EXPECT_GE(klein::LorentzFactor(k), 1.0);
  }
  std::vector<double> origin(4, 0.0);
  EXPECT_NEAR(klein::LorentzFactor(origin), 1.0, 1e-12);
}

TEST(KleinTest, MidpointOfIdenticalPointsIsThePoint) {
  Rng rng(18);
  Matrix pts(3, 4);
  auto p = RandomBallPoint(&rng, 4, 0.7);
  for (size_t r = 0; r < 3; ++r) vec::Copy(p, pts.row(r));
  const std::vector<double> mid = MidpointOfAllRows(pts);
  for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(mid[i], p[i], 1e-10);
}

TEST(KleinTest, MidpointRespectsWeights) {
  // With one dominant weight, the midpoint approaches that point.
  Matrix pts(2, 2);
  pts.at(0, 0) = 0.5;
  pts.at(1, 0) = -0.5;
  std::vector<uint32_t> idx = {0, 1};
  std::vector<double> w = {100.0, 1e-6};
  std::vector<double> mid(2);
  klein::EinsteinMidpoint(pts, idx, w, vec::Span(mid));
  EXPECT_NEAR(mid[0], 0.5, 1e-4);
}

// Dimension-parameterized round-trip sweeps: the model conversions must be
// mutually consistent at every embedding size we use.
class HyperbolicDimTest : public ::testing::TestWithParam<int> {};

TEST_P(HyperbolicDimTest, AllModelDistancesAgree) {
  const size_t d = GetParam();
  Rng rng(100 + d);
  for (int trial = 0; trial < 10; ++trial) {
    auto p = RandomBallPoint(&rng, d, 0.9);
    auto q = RandomBallPoint(&rng, d, 0.9);
    // Poincaré distance vs Lorentz distance after lifting.
    std::vector<double> pl(d + 1), ql(d + 1);
    hyper::PoincareToLorentz(p, vec::Span(pl));
    hyper::PoincareToLorentz(q, vec::Span(ql));
    EXPECT_NEAR(poincare::Distance(p, q), lorentz::Distance(pl, ql), 1e-7);
    // Klein round trip via Lorentz.
    std::vector<double> k(d), lor(d + 1), back(d);
    hyper::PoincareToKlein(p, vec::Span(k));
    hyper::KleinToLorentz(k, vec::Span(lor));
    hyper::LorentzToPoincare(lor, vec::Span(back));
    for (size_t i = 0; i < d; ++i) EXPECT_NEAR(back[i], p[i], 1e-8);
  }
}

TEST_P(HyperbolicDimTest, ExpMapInvertsLogMap) {
  const size_t d = GetParam();
  Rng rng(200 + d);
  for (int trial = 0; trial < 10; ++trial) {
    auto x = RandomLorentzPoint(&rng, d, 1.0);
    std::vector<double> z(d + 1), back(d + 1);
    lorentz::LogMapOrigin(x, vec::Span(z));
    lorentz::ExpMapOrigin(z, vec::Span(back));
    for (size_t i = 0; i <= d; ++i) EXPECT_NEAR(back[i], x[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, HyperbolicDimTest,
                         ::testing::Values(2, 4, 12, 52, 64));

TEST(PoincareTest, LogMapInvertsExpMap) {
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    auto x = RandomBallPoint(&rng, 4, 0.8);
    auto y = RandomBallPoint(&rng, 4, 0.8);
    std::vector<double> v(4), back(4);
    PoincareLogMap(x, y, vec::Span(v));
    // ExpMap's tangent convention carries the conformal factor.
    const double lambda = 2.0 / (1.0 - vec::SqNorm(x));
    vec::Scale(vec::Span(v), lambda);
    poincare::ExpMap(x, vec::ConstSpan(v), vec::Span(back));
    for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(back[i], y[i], 1e-9);
  }
}

TEST(PoincareTest, LogMapNormEqualsDistance) {
  // The Riemannian norm lambda_x * ||log_x(y)|| equals d_P(x, y).
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    auto x = RandomBallPoint(&rng, 5, 0.85);
    auto y = RandomBallPoint(&rng, 5, 0.85);
    std::vector<double> v(5);
    PoincareLogMap(x, y, vec::Span(v));
    const double lambda = 2.0 / (1.0 - vec::SqNorm(x));
    EXPECT_NEAR(lambda * vec::Norm(v), poincare::Distance(x, y), 1e-8);
  }
}

TEST(PoincareTest, GeodesicEndpointsAndMidpoint) {
  Rng rng(43);
  for (int trial = 0; trial < 10; ++trial) {
    auto x = RandomBallPoint(&rng, 4, 0.8);
    auto y = RandomBallPoint(&rng, 4, 0.8);
    std::vector<double> p0(4), p1(4), mid(4);
    PoincareGeodesic(x, y, 0.0, vec::Span(p0));
    PoincareGeodesic(x, y, 1.0, vec::Span(p1));
    PoincareGeodesic(x, y, 0.5, vec::Span(mid));
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_NEAR(p0[i], x[i], 1e-9);
      EXPECT_NEAR(p1[i], y[i], 1e-8);
    }
    // The midpoint is equidistant and halves the distance.
    const double d = poincare::Distance(x, y);
    EXPECT_NEAR(poincare::Distance(x, mid), d / 2.0, 1e-7);
    EXPECT_NEAR(poincare::Distance(mid, y), d / 2.0, 1e-7);
  }
}

TEST(PoincareTest, GeodesicIsAdditiveInParameter) {
  // geo(x, y, s+t) == geo(geo(x,y,s), y, t/(1-s) ... ) is messy; instead
  // check that distances along the curve are proportional to t.
  Rng rng(44);
  auto x = RandomBallPoint(&rng, 3, 0.7);
  auto y = RandomBallPoint(&rng, 3, 0.7);
  const double d = poincare::Distance(x, y);
  for (double t : {0.25, 0.5, 0.75}) {
    std::vector<double> p(3);
    PoincareGeodesic(x, y, t, vec::Span(p));
    EXPECT_NEAR(poincare::Distance(x, p), t * d, 1e-7) << t;
  }
}

TEST(LorentzTest, RsgdStepLengthIsCapped) {
  // Even an enormous gradient moves the point at most ~lr*cap plus
  // projection slack — no overflow, still on-manifold.
  Rng rng(31);
  std::vector<double> x(7);
  lorentz::RandomPoint(&rng, 0.5, vec::Span(x));
  const std::vector<double> before = x;
  std::vector<double> g(7, 1e9);
  lorentz::RsgdStep(vec::Span(x), g, 1.0);
  EXPECT_NEAR(lorentz::Inner(x, x), -1.0, 1e-8);
  EXPECT_LT(lorentz::Distance(before, x), 1.5);
}

// The pairs the kernel must handle like the term-by-term formulas: random
// rows, rows whose conformal term is floored at kAlphaFloor (on and past
// the boundary), and identical rows (gamma = 1, radicand floored).
std::vector<std::pair<std::vector<double>, std::vector<double>>>
KernelCasePairs() {
  Rng rng(51);
  std::vector<std::pair<std::vector<double>, std::vector<double>>> pairs;
  for (int trial = 0; trial < 20; ++trial) {
    pairs.emplace_back(RandomBallPoint(&rng, 12, 0.95),
                       RandomBallPoint(&rng, 12, 0.95));
  }
  for (double norm : {1.0, 1.0 + 1e-3}) {
    auto at_floor = RandomBallPoint(&rng, 12, 0.5);
    vec::Scale(vec::Span(at_floor), norm / vec::Norm(at_floor));
    EXPECT_EQ(ReferenceAlpha(at_floor), poincare::kAlphaFloor);
    pairs.emplace_back(at_floor, RandomBallPoint(&rng, 12, 0.9));
    pairs.emplace_back(RandomBallPoint(&rng, 12, 0.9), at_floor);
    pairs.emplace_back(at_floor, at_floor);
  }
  for (int trial = 0; trial < 3; ++trial) {
    const auto x = RandomBallPoint(&rng, 12, 0.9);
    pairs.emplace_back(x, x);
  }
  return pairs;
}

TEST(PoincareTest, PairTermsMatchTermByTermFormulasBitForBit) {
  Rng rng(52);
  for (const auto& [x, y] : KernelCasePairs()) {
    const poincare::PairTerms terms(vec::SqNorm(x), vec::SqNorm(y),
                                    vec::SqDist(x, y));
    const double want = ReferenceDistance(x, y);
    ExpectSameBits(terms.Distance(), want, "PairTerms::Distance");
    ExpectSameBits(poincare::Distance(x, y), want, "Distance");

    // Gradients accumulate into a nonzero row, as in the warm-up.
    std::vector<double> start(x.size());
    for (double& v : start) v = rng.NextGaussian();
    const double scale = rng.NextGaussian();
    const double xy = vec::Dot(x, y);
    std::vector<double> want_x = start, got_x = start, api_x = start;
    ReferenceDistanceGradX(x, y, scale, vec::Span(want_x));
    terms.AddGradX(x, y, xy, scale, vec::Span(got_x));
    poincare::DistanceGradX(x, y, scale, vec::Span(api_x));
    ExpectSameBits(got_x, want_x, "AddGradX");
    ExpectSameBits(api_x, want_x, "DistanceGradX");
    std::vector<double> want_y = start, got_y = start;
    ReferenceDistanceGradX(y, x, scale, vec::Span(want_y));
    terms.AddGradY(x, y, xy, scale, vec::Span(got_y));
    ExpectSameBits(got_y, want_y, "AddGradY");
  }
}

TEST(PoincareTest, InPlaceRsgdStepMatchesCopyingStepBitForBit) {
  Rng rng(53);
  for (int trial = 0; trial < 40; ++trial) {
    // Near the boundary the step lands past 1 - kBallEps and is projected;
    // a zero gradient takes the too-short-to-move branch.
    auto x = RandomBallPoint(&rng, 12, trial % 2 == 0 ? 0.6 : 0.99999);
    std::vector<double> grad(12, 0.0);
    if (trial % 10 != 0) {
      for (double& v : grad) v = (trial % 3 + 1) * rng.NextGaussian();
    }
    std::vector<double> want = x;
    ReferencePoincareRsgdStep(vec::Span(want), grad, 0.3);
    poincare::RsgdStep(vec::Span(x), vec::Span(grad), 0.3);
    ExpectSameBits(x, want, "poincare::RsgdStep");
  }
}

TEST(LorentzTest, InPlaceRsgdStepMatchesCopyingStepBitForBit) {
  Rng rng(54);
  for (int trial = 0; trial < 40; ++trial) {
    auto x = RandomLorentzPoint(&rng, 12, 0.2 + 0.1 * (trial % 10));
    std::vector<double> grad(13, 0.0);
    if (trial % 10 != 0) {
      // Large gradients hit the step-length cap.
      for (double& v : grad) v = (trial % 4 == 0 ? 50.0 : 1.0) *
                                 rng.NextGaussian();
    }
    std::vector<double> want = x;
    ReferenceLorentzRsgdStep(vec::Span(want), grad, 0.3);
    lorentz::RsgdStep(vec::Span(x), vec::Span(grad), 0.3);
    ExpectSameBits(x, want, "lorentz::RsgdStep");
  }
}

// LorentzRsgdUpdate relies on this: RsgdStep's own projection is its last
// write, so a second one could not change a bit.
TEST(LorentzTest, ProjectToHyperboloidTwiceEqualsOnce) {
  Rng rng(55);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> x(13);
    for (double& v : x) v = 3.0 * rng.NextGaussian();
    lorentz::ProjectToHyperboloid(vec::Span(x));
    const std::vector<double> once = x;
    lorentz::ProjectToHyperboloid(vec::Span(x));
    ExpectSameBits(x, once, "ProjectToHyperboloid");
  }
}

TEST(KleinTest, MidpointStaysInBall) {
  Rng rng(19);
  Matrix pts(10, 3);
  for (size_t r = 0; r < 10; ++r) {
    auto p = RandomBallPoint(&rng, 3, 0.99);
    vec::Copy(p, pts.row(r));
  }
  EXPECT_LT(vec::Norm(MidpointOfAllRows(pts)), 1.0);
}

}  // namespace
}  // namespace taxorec
