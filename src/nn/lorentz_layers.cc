#include "nn/lorentz_layers.h"

#include <cmath>

#include "common/check.h"
#include "hyperbolic/lorentz.h"
#include "math/vec_ops.h"

namespace taxorec::nn {
namespace {

// Below this spatial norm the maps are treated as the identity on spatial
// coordinates (their exact limit), avoiding 0/0 forms.
constexpr double kNearOrigin = 1e-7;

// Floor for 1/sqrt(x0^2 - 1) in the log-map Jacobian.
constexpr double kRadicandFloor = 1e-14;

// Rows an exp map stage visits: every row of `m`, or the listed ones (the
// last bounds them all, since the list ascends).
size_t RowCount(const Matrix& m, const std::vector<uint32_t>* rows) {
  if (rows == nullptr) return m.rows();
  TAXOREC_CHECK(rows->empty() || rows->back() < m.rows());
  return rows->size();
}

}  // namespace

void LogMapOriginForward(const Matrix& X, Matrix* Z) {
  Z->EnsureShape(X.rows(), X.cols());
  for (size_t r = 0; r < X.rows(); ++r) {
    lorentz::LogMapOrigin(X.row(r), Z->row(r));
  }
}

void LogMapOriginBackward(const Matrix& X, const Matrix& upstream,
                          Matrix* grad_X) {
  TAXOREC_CHECK(upstream.rows() == X.rows() && upstream.cols() == X.cols());
  TAXOREC_CHECK(grad_X->rows() == X.rows() && grad_X->cols() == X.cols());
  const size_t d1 = X.cols();
  for (size_t r = 0; r < X.rows(); ++r) {
    const auto x = X.row(r);
    const auto g = upstream.row(r);
    auto gx = grad_X->row(r);
    double ns_sq = 0.0;
    double sg = 0.0;  // <x_spatial, g_spatial>
    for (size_t i = 1; i < d1; ++i) {
      ns_sq += x[i] * x[i];
      sg += x[i] * g[i];
    }
    const double ns = std::sqrt(ns_sq);
    if (ns < kNearOrigin) {
      // log_o is the identity on spatial coordinates at the origin.
      for (size_t i = 1; i < d1; ++i) gx[i] += g[i];
      continue;
    }
    const double x0 = x[0] < 1.0 ? 1.0 : x[0];
    const double rr = std::acosh(x0);
    double radicand = x0 * x0 - 1.0;
    if (radicand < kRadicandFloor) radicand = kRadicandFloor;
    // d out_j / d x0 = x_j / (ns * sqrt(x0^2-1)).
    gx[0] += sg / (ns * std::sqrt(radicand));
    // d out_j / d x_i = rr * (delta_ij / ns - x_i x_j / ns^3).
    const double a = rr / ns;
    const double b = rr * sg / (ns_sq * ns);
    for (size_t i = 1; i < d1; ++i) gx[i] += a * g[i] - b * x[i];
  }
}

void ExpMapOriginForward(const Matrix& Z, Matrix* Y,
                         const std::vector<uint32_t>* rows) {
  Y->EnsureShape(Z.rows(), Z.cols());
  const size_t n = RowCount(Z, rows);
  for (size_t i = 0; i < n; ++i) {
    const size_t r = rows == nullptr ? i : (*rows)[i];
    lorentz::ExpMapOrigin(Z.row(r), Y->row(r));
  }
}

void ExpMapOriginBackward(const Matrix& Z, const Matrix& upstream,
                          Matrix* grad_Z, const std::vector<uint32_t>* rows) {
  TAXOREC_CHECK(upstream.rows() == Z.rows() && upstream.cols() == Z.cols());
  TAXOREC_CHECK(grad_Z->rows() == Z.rows() && grad_Z->cols() == Z.cols());
  const size_t d1 = Z.cols();
  const size_t n = RowCount(Z, rows);
  for (size_t i = 0; i < n; ++i) {
    const size_t r = rows == nullptr ? i : (*rows)[i];
    const auto g = upstream.row(r);
    // Most rows of a batch's upstream are zero (the loss reached few
    // users and items); for a row whose map is finite the arithmetic below
    // adds +0.0 there, which leaves a zeroed grad_Z row as it is.
    if (vec::AllZero(g)) continue;
    const auto z = Z.row(r);
    auto gz = grad_Z->row(r);
    double r_sq = 0.0;
    double zg = 0.0;  // <z_spatial, g_spatial>
    for (size_t i = 1; i < d1; ++i) {
      r_sq += z[i] * z[i];
      zg += z[i] * g[i];
    }
    const double rn = std::sqrt(r_sq);
    if (rn < kNearOrigin) {
      // exp_o is the identity on spatial coordinates at the origin.
      for (size_t i = 1; i < d1; ++i) gz[i] += g[i];
      continue;
    }
    const double ch = std::cosh(rn);
    const double sh = std::sinh(rn);
    const double sh_over_r = sh / rn;
    // d out_0 / d z_i = sh * z_i / r.
    // d out_j / d z_i = ch z_i z_j / r^2 + sh (delta_ij / r - z_i z_j / r^3).
    const double coef_zi =
        g[0] * sh_over_r + zg * (ch / r_sq - sh / (r_sq * rn));
    for (size_t i = 1; i < d1; ++i) {
      gz[i] += coef_zi * z[i] + sh_over_r * g[i];
    }
  }
}

}  // namespace taxorec::nn
