// Riemannian SGD (Bonnabel 2013) for the two hyperbolic parameterizations
// used by TaxoRec (§IV-E): Poincaré-ball tag embeddings (Möbius exp-map
// updates, Eq. 21–22) and Lorentz user/item embeddings (tangent projection
// + hyperboloid exp map, Eq. 23).
#ifndef TAXOREC_OPTIM_RSGD_H_
#define TAXOREC_OPTIM_RSGD_H_

#include "math/matrix.h"

namespace taxorec::optim {

/// Row-wise Poincaré RSGD: each row of params is a ball point, each row of
/// grads its accumulated *Euclidean* gradient. Rows with zero gradient are
/// skipped. Clips each Euclidean gradient row to `grad_clip` first
/// (<= 0 disables clipping). Both updates allocate one row-sized step
/// buffer per call, whatever the number of rows.
void PoincareRsgdUpdate(Matrix* params, const Matrix& grads, double lr,
                        double grad_clip);

/// Row-wise Lorentz RSGD: each row of params is a hyperboloid point in
/// d+1 coordinates, each row of grads its accumulated Euclidean gradient.
/// Zero rows are skipped and rows clipped as in PoincareRsgdUpdate.
void LorentzRsgdUpdate(Matrix* params, const Matrix& grads, double lr,
                       double grad_clip);

}  // namespace taxorec::optim

#endif  // TAXOREC_OPTIM_RSGD_H_
