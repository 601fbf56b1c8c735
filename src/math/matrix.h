// Row-major dense matrix of doubles.
//
// The workhorse container for embedding tables and GCN layer activations:
// rows(i) returns a mutable/const span over row i so kernels in vec:: and
// the hyperbolic/NN layers operate in place without copies.
#ifndef TAXOREC_MATH_MATRIX_H_
#define TAXOREC_MATH_MATRIX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"
#include "math/rng.h"

namespace taxorec {

/// Dense rows × cols matrix, row-major, double precision.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& at(size_t r, size_t c) {
    TAXOREC_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double at(size_t r, size_t c) const {
    TAXOREC_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<double> row(size_t r) {
    TAXOREC_DCHECK(r < rows_);
    return std::span<double>(data_.data() + r * cols_, cols_);
  }
  std::span<const double> row(size_t r) const {
    TAXOREC_DCHECK(r < rows_);
    return std::span<const double>(data_.data() + r * cols_, cols_);
  }

  std::span<double> flat() { return std::span<double>(data_); }
  std::span<const double> flat() const {
    return std::span<const double>(data_);
  }

  /// Sets every element to zero.
  void SetZero();

  /// Gives the matrix the shape rows × cols. A matching shape keeps the
  /// buffer and its contents; any other shape reallocates, zeroed.
  void EnsureShape(size_t rows, size_t cols) {
    if (rows_ != rows || cols_ != cols) *this = Matrix(rows, cols);
  }

  /// Fills with i.i.d. N(0, stddev^2) entries.
  void FillGaussian(Rng* rng, double stddev);

  /// Fills with i.i.d. Uniform[lo, hi) entries.
  void FillUniform(Rng* rng, double lo, double hi);

  /// this += a * other (same shape).
  void Axpy(double a, const Matrix& other);

 private:
  friend void MatMul(const Matrix& a, const Matrix& b, Matrix* out);
  friend void MatMulTransposedA(const Matrix& a, const Matrix& b, Matrix* out);
  friend void MatMulTransposedB(const Matrix& a, const Matrix& b, Matrix* out);

  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// out = a * b (n×k = n×d · d×k). out is resized/overwritten; a buffer of
/// the right shape is reused.
void MatMul(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a^T * b (d×k = (n×d)^T · n×k), reusing out like MatMul.
void MatMulTransposedA(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a * b^T (n×m = n×d · (m×d)^T), reusing out like MatMul.
void MatMulTransposedB(const Matrix& a, const Matrix& b, Matrix* out);

}  // namespace taxorec

#endif  // TAXOREC_MATH_MATRIX_H_
