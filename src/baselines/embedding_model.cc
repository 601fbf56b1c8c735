#include "baselines/embedding_model.h"

#include "common/check.h"
#include "math/vec_ops.h"
#include "nn/losses.h"

namespace taxorec {

void EuclidSqDistGrad(std::span<const double> x, std::span<const double> y,
                      double scale, std::span<double> grad_x,
                      std::span<double> grad_y) {
  TAXOREC_DCHECK(x.size() == y.size());
  const double c = 2.0 * scale;
  if (!grad_x.empty()) {
    TAXOREC_DCHECK(grad_x.size() == x.size());
    for (size_t i = 0; i < x.size(); ++i) grad_x[i] += c * (x[i] - y[i]);
  }
  if (!grad_y.empty()) {
    TAXOREC_DCHECK(grad_y.size() == y.size());
    for (size_t i = 0; i < y.size(); ++i) grad_y[i] += c * (y[i] - x[i]);
  }
}

void AddBprGrad(std::span<const double> u, std::span<const double> vp,
                std::span<const double> vq, std::span<double> grad_u,
                std::span<double> grad_p, std::span<double> grad_q) {
  double c;
  nn::Bpr(vec::Dot(u, vp) - vec::Dot(u, vq), &c);
  for (size_t i = 0; i < u.size(); ++i) {
    grad_u[i] += c * (vp[i] - vq[i]);
    grad_p[i] += c * u[i];
    grad_q[i] -= c * u[i];
  }
}

void RowMeans(const CsrMatrix& memberships, const Matrix& table,
              Matrix* out) {
  TAXOREC_CHECK(memberships.cols() == table.rows());
  out->EnsureShape(memberships.rows(), table.cols());
  for (size_t r = 0; r < memberships.rows(); ++r) {
    const auto cols = memberships.RowCols(r);
    auto row = out->row(r);
    vec::Zero(row);
    if (cols.empty()) continue;
    for (uint32_t c : cols) vec::Axpy(1.0, table.row(c), row);
    vec::Scale(row, 1.0 / static_cast<double>(cols.size()));
  }
}

void RowMeansBackward(const CsrMatrix& memberships, const Matrix& grad_means,
                      Matrix* grad_table) {
  TAXOREC_CHECK(memberships.rows() == grad_means.rows() &&
                memberships.cols() == grad_table->rows());
  for (size_t r = 0; r < memberships.rows(); ++r) {
    const auto cols = memberships.RowCols(r);
    if (cols.empty()) continue;
    const double w = 1.0 / static_cast<double>(cols.size());
    for (uint32_t c : cols) vec::Axpy(w, grad_means.row(r), grad_table->row(c));
  }
}

}  // namespace taxorec
