// Klein model of hyperbolic space and the Einstein midpoint.
//
// K^d = { x in R^d : ||x|| < 1 }. The Klein model is where hyperbolic
// averages take the simple weighted-mean form (Eq. 1, Eq. 10 of the paper):
// HypAve(x_1..x_N) = sum_i gamma_i x_i / sum_i gamma_i with Lorentz factor
// gamma_i = 1/sqrt(1 - ||x_i||^2).
#ifndef TAXOREC_HYPERBOLIC_KLEIN_H_
#define TAXOREC_HYPERBOLIC_KLEIN_H_

#include <span>

#include "math/matrix.h"

namespace taxorec::klein {

using Span = std::span<double>;
using ConstSpan = std::span<const double>;

/// Lorentz factor gamma(x) = 1/sqrt(1 - ||x||^2), with a boundary floor.
double LorentzFactor(ConstSpan x);

/// Einstein midpoint of weighted Klein points:
/// out = sum_i gamma(x_i) w_i x_i / sum_i gamma(x_i) w_i.
/// `points` is a matrix whose selected rows are Klein points; `indices`
/// selects the rows, `weights` (same length) are the psi_i of Eq. 10.
/// Zero total weight yields the origin.
void EinsteinMidpoint(const Matrix& points,
                      std::span<const uint32_t> indices,
                      std::span<const double> weights, Span out);

}  // namespace taxorec::klein

#endif  // TAXOREC_HYPERBOLIC_KLEIN_H_
