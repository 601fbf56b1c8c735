// Dense vector kernels over raw double spans.
//
// Embeddings are stored as rows of a Matrix; these kernels operate on
// row views so the hyperbolic and NN layers never copy. All kernels are
// length-checked via TAXOREC_DCHECK.
#ifndef TAXOREC_MATH_VEC_OPS_H_
#define TAXOREC_MATH_VEC_OPS_H_

#include <cstddef>
#include <span>
#include <vector>

namespace taxorec::vec {

using Span = std::span<double>;
using ConstSpan = std::span<const double>;

/// Dot product <x, y>.
double Dot(ConstSpan x, ConstSpan y);

/// Squared Euclidean norm ||x||^2.
double SqNorm(ConstSpan x);

/// Euclidean norm ||x||.
double Norm(ConstSpan x);

/// Squared Euclidean distance ||x - y||^2.
double SqDist(ConstSpan x, ConstSpan y);

/// out = x (copy). Sizes must match.
void Copy(ConstSpan x, Span out);

/// out = 0.
void Zero(Span out);

/// x *= a.
void Scale(Span x, double a);

/// out = a * x.
void ScaleTo(ConstSpan x, double a, Span out);

/// y += a * x.
void Axpy(double a, ConstSpan x, Span y);

/// out = x + y.
void Add(ConstSpan x, ConstSpan y, Span out);

/// out = a*x + b*y.
void Combine(double a, ConstSpan x, double b, ConstSpan y, Span out);

/// Elementwise product: out = x ⊙ y.
void Hadamard(ConstSpan x, ConstSpan y, Span out);

/// Clamps the Euclidean norm of x to at most max_norm (rescales in place),
/// also when its squared norm overflows. A row with a NaN is left as is.
void ClipNorm(Span x, double max_norm);

/// True when every entry of x is +0.0 or -0.0.
bool AllZero(ConstSpan x);

}  // namespace taxorec::vec

#endif  // TAXOREC_MATH_VEC_OPS_H_
