#include "baselines/nmf.h"

#include "math/vec_ops.h"

namespace taxorec {
namespace {

constexpr double kEps = 1e-9;

// G = M^T M (d × d Gram matrix).
Matrix Gram(const Matrix& m) {
  const size_t d = m.cols();
  Matrix g(d, d);
  for (size_t r = 0; r < m.rows(); ++r) {
    const auto row = m.row(r);
    for (size_t i = 0; i < d; ++i) {
      const double ri = row[i];
      if (ri == 0.0) continue;
      auto gi = g.row(i);
      for (size_t j = 0; j < d; ++j) gi[j] += ri * row[j];
    }
  }
  return g;
}

// out = a * g  (a: n × d, g: d × d).
Matrix MulGram(const Matrix& a, const Matrix& g) {
  Matrix out(a.rows(), a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    const auto arow = a.row(r);
    auto orow = out.row(r);
    for (size_t i = 0; i < a.cols(); ++i) {
      const double ai = arow[i];
      if (ai == 0.0) continue;
      vec::Axpy(ai, g.row(i), orow);
    }
  }
  return out;
}

// Multiplicative update: factor ⊙= numer / (denom + eps).
void MultiplicativeUpdate(const Matrix& numer, const Matrix& denom,
                          Matrix* factor) {
  for (size_t r = 0; r < factor->rows(); ++r) {
    auto f = factor->row(r);
    const auto n = numer.row(r);
    const auto d = denom.row(r);
    for (size_t i = 0; i < f.size(); ++i) {
      f[i] *= n[i] / (d[i] + kEps);
    }
  }
}

}  // namespace

void Nmf::BeginFit(const DataSplit& split, Rng* rng) {
  w_ = Matrix(split.num_users, config().dim);
  h_ = Matrix(split.num_items, config().dim);
  w_.FillUniform(rng, 0.01, 1.0);
  h_.FillUniform(rng, 0.01, 1.0);
  xt_ = split.train.Transposed();
}

double Nmf::FitEpoch(const DataSplit& split, int epoch, Rng* rng) {
  Matrix xh, xtw;
  split.train.Multiply(h_, &xh);                 // X H
  const Matrix wg = MulGram(w_, Gram(h_));       // W (H^T H)
  MultiplicativeUpdate(xh, wg, &w_);
  xt_.Multiply(w_, &xtw);                        // X^T W
  const Matrix hg = MulGram(h_, Gram(w_));       // H (W^T W)
  MultiplicativeUpdate(xtw, hg, &h_);
  return 0.0;
}

}  // namespace taxorec
