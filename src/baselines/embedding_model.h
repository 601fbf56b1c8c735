// Shared helpers for the baseline implementations.
#ifndef TAXOREC_BASELINES_EMBEDDING_MODEL_H_
#define TAXOREC_BASELINES_EMBEDDING_MODEL_H_

#include <span>

#include "math/csr.h"
#include "math/matrix.h"

namespace taxorec {

/// Accumulates gradients of the squared Euclidean distance ||x - y||^2:
/// grad_x += scale * 2(x - y), grad_y += scale * 2(y - x). Either gradient
/// span may be empty to skip it.
void EuclidSqDistGrad(std::span<const double> x, std::span<const double> y,
                      double scale, std::span<double> grad_x,
                      std::span<double> grad_y);

/// Adds the gradients of the BPR loss on <u, vp> - <u, vq> to grad_u,
/// grad_p and grad_q. The graph baselines sum these over a batch rather
/// than average them, so a sample's step matches the per-triplet models'.
void AddBprGrad(std::span<const double> u, std::span<const double> vp,
                std::span<const double> vq, std::span<double> grad_u,
                std::span<double> grad_p, std::span<double> grad_q);

/// Mean of the `table` rows that each row of `memberships` selects (e.g. an
/// item's mean tag embedding), into `out`; rows with no members are zero.
void RowMeans(const CsrMatrix& memberships, const Matrix& table,
              Matrix* out);

/// Adjoint of RowMeans: adds each row of `grad_means`, over its member
/// count, to its members' rows of `grad_table`.
void RowMeansBackward(const CsrMatrix& memberships, const Matrix& grad_means,
                      Matrix* grad_table);

}  // namespace taxorec

#endif  // TAXOREC_BASELINES_EMBEDDING_MODEL_H_
