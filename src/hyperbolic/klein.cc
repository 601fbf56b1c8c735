#include "hyperbolic/klein.h"

#include <cmath>

#include "common/check.h"
#include "math/vec_ops.h"

namespace taxorec::klein {
namespace {

constexpr double kOneMinusSqFloor = 1e-10;

}  // namespace

double LorentzFactor(ConstSpan x) {
  double one_minus = 1.0 - vec::SqNorm(x);
  if (one_minus < kOneMinusSqFloor) one_minus = kOneMinusSqFloor;
  return 1.0 / std::sqrt(one_minus);
}

void EinsteinMidpoint(const Matrix& points,
                      std::span<const uint32_t> indices,
                      std::span<const double> weights, Span out) {
  TAXOREC_DCHECK(indices.size() == weights.size());
  TAXOREC_DCHECK(out.size() == points.cols());
  vec::Zero(out);
  double denom = 0.0;
  for (size_t k = 0; k < indices.size(); ++k) {
    const auto row = points.row(indices[k]);
    const double w = LorentzFactor(row) * weights[k];
    vec::Axpy(w, row, out);
    denom += w;
  }
  if (denom <= 0.0) {
    vec::Zero(out);
    return;
  }
  vec::Scale(out, 1.0 / denom);
}

}  // namespace taxorec::klein
