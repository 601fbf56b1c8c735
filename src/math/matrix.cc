#include "math/matrix.h"

namespace taxorec {

void Matrix::SetZero() {
  for (double& v : data_) v = 0.0;
}

void Matrix::FillGaussian(Rng* rng, double stddev) {
  for (double& v : data_) v = stddev * rng->NextGaussian();
}

void Matrix::FillUniform(Rng* rng, double lo, double hi) {
  for (double& v : data_) v = rng->UniformReal(lo, hi);
}

void Matrix::Axpy(double a, const Matrix& other) {
  TAXOREC_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += a * other.data_[i];
}

void MatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  TAXOREC_CHECK(a.cols_ == b.rows_);
  out->EnsureShape(a.rows_, b.cols_);
  out->SetZero();
  for (size_t i = 0; i < a.rows_; ++i) {
    const double* arow = a.data_.data() + i * a.cols_;
    double* orow = out->data_.data() + i * b.cols_;
    for (size_t k = 0; k < a.cols_; ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b.data_.data() + k * b.cols_;
      for (size_t j = 0; j < b.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
}

void MatMulTransposedA(const Matrix& a, const Matrix& b, Matrix* out) {
  TAXOREC_CHECK(a.rows_ == b.rows_);
  out->EnsureShape(a.cols_, b.cols_);
  out->SetZero();
  for (size_t i = 0; i < a.rows_; ++i) {
    const double* arow = a.data_.data() + i * a.cols_;
    const double* brow = b.data_.data() + i * b.cols_;
    for (size_t k = 0; k < a.cols_; ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      double* orow = out->data_.data() + k * b.cols_;
      for (size_t j = 0; j < b.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
}

void MatMulTransposedB(const Matrix& a, const Matrix& b, Matrix* out) {
  TAXOREC_CHECK(a.cols_ == b.cols_);
  out->EnsureShape(a.rows_, b.rows_);
  for (size_t i = 0; i < a.rows_; ++i) {
    const double* arow = a.data_.data() + i * a.cols_;
    double* orow = out->data_.data() + i * b.rows_;
    for (size_t m = 0; m < b.rows_; ++m) {
      const double* brow = b.data_.data() + m * b.cols_;
      double acc = 0.0;
      for (size_t k = 0; k < a.cols_; ++k) acc += arow[k] * brow[k];
      orow[m] = acc;
    }
  }
}

}  // namespace taxorec
