#include "math/vec_ops.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace taxorec::vec {

double Dot(ConstSpan x, ConstSpan y) {
  TAXOREC_DCHECK(x.size() == y.size());
  double acc = 0.0;
  for (size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

double SqNorm(ConstSpan x) { return Dot(x, x); }

double Norm(ConstSpan x) { return std::sqrt(SqNorm(x)); }

double SqDist(ConstSpan x, ConstSpan y) {
  TAXOREC_DCHECK(x.size() == y.size());
  double acc = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    acc += d * d;
  }
  return acc;
}

void Copy(ConstSpan x, Span out) {
  TAXOREC_DCHECK(x.size() == out.size());
  for (size_t i = 0; i < x.size(); ++i) out[i] = x[i];
}

void Zero(Span out) {
  for (double& v : out) v = 0.0;
}

void Scale(Span x, double a) {
  for (double& v : x) v *= a;
}

void ScaleTo(ConstSpan x, double a, Span out) {
  TAXOREC_DCHECK(x.size() == out.size());
  for (size_t i = 0; i < x.size(); ++i) out[i] = a * x[i];
}

void Axpy(double a, ConstSpan x, Span y) {
  TAXOREC_DCHECK(x.size() == y.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] += a * x[i];
}

void Add(ConstSpan x, ConstSpan y, Span out) {
  TAXOREC_DCHECK(x.size() == y.size() && x.size() == out.size());
  for (size_t i = 0; i < x.size(); ++i) out[i] = x[i] + y[i];
}

void Combine(double a, ConstSpan x, double b, ConstSpan y, Span out) {
  TAXOREC_DCHECK(x.size() == y.size() && x.size() == out.size());
  for (size_t i = 0; i < x.size(); ++i) out[i] = a * x[i] + b * y[i];
}

void Hadamard(ConstSpan x, ConstSpan y, Span out) {
  TAXOREC_DCHECK(x.size() == y.size() && x.size() == out.size());
  for (size_t i = 0; i < x.size(); ++i) out[i] = x[i] * y[i];
}

void ClipNorm(Span x, double max_norm) {
  TAXOREC_DCHECK(max_norm > 0.0);
  const double n = Norm(x);
  if (!(n > max_norm)) return;
  if (std::isinf(n)) {
    // The sum of squares overflowed. Divided by its largest |x_i|, a row
    // of finite entries has a finite norm, so it is clipped along its own
    // direction; a row with an infinite entry keeps the scaling below.
    double largest = 0.0;
    for (const double v : x) largest = std::max(largest, std::abs(v));
    if (std::isfinite(largest)) {
      for (double& v : x) v /= largest;
      Scale(x, max_norm / Norm(x));
      return;
    }
  }
  Scale(x, max_norm / n);
}

bool AllZero(ConstSpan x) {
  for (double v : x) {
    if (v != 0.0) return false;
  }
  return true;
}

}  // namespace taxorec::vec
