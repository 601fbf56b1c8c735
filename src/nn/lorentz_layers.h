// Batched Lorentz log/exp map layers with closed-form backward passes.
//
// The TaxoRec pipeline (§IV-D) is: hyperboloid embeddings → log_o (Eq. 12)
// → GCN in the tangent space (Eq. 13–14) → exp_o (Eq. 15) → Lorentz
// distances. These layers implement the two map stages over whole embedding
// matrices (rows = entities, cols = d+1 Lorentz coordinates with column 0
// the time coordinate) together with exact Jacobian-transpose backward
// passes, verified against finite differences in tests/nn_gradcheck_test.cc.
// The exp map stages also take a row list (null: every row): a training
// step maps only the rows its batch reads (nn::GcnChannel), and each listed
// row is computed exactly as in the full pass.
#ifndef TAXOREC_NN_LORENTZ_LAYERS_H_
#define TAXOREC_NN_LORENTZ_LAYERS_H_

#include <cstdint>
#include <vector>

#include "math/matrix.h"

namespace taxorec::nn {

/// Applies log_o row-wise: Z = log_o(X). X rows are hyperboloid points,
/// Z rows are tangent vectors at the origin (column 0 becomes 0).
void LogMapOriginForward(const Matrix& X, Matrix* Z);

/// Accumulates grad_X += J_logmap(X)^T * upstream, row-wise.
void LogMapOriginBackward(const Matrix& X, const Matrix& upstream,
                          Matrix* grad_X);

/// Applies exp_o row-wise: Y = exp_o(Z). Z rows are tangent vectors at the
/// origin (column 0 ignored/expected 0), Y rows are hyperboloid points.
/// With `rows` (ascending, distinct) only those rows of Y are written.
void ExpMapOriginForward(const Matrix& Z, Matrix* Y,
                         const std::vector<uint32_t>* rows = nullptr);

/// Accumulates grad_Z += J_expmap(Z)^T * upstream, row-wise. Column 0 of
/// grad_Z is left untouched (the tangent space at o has z_0 = 0), and so is
/// every row whose upstream row is all zero. With `rows` only those rows
/// are visited, which is exact when upstream is zero on every other row.
void ExpMapOriginBackward(const Matrix& Z, const Matrix& upstream,
                          Matrix* grad_Z,
                          const std::vector<uint32_t>* rows = nullptr);

}  // namespace taxorec::nn

#endif  // TAXOREC_NN_LORENTZ_LAYERS_H_
