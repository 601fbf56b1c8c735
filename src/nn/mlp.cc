#include "nn/mlp.h"

#include <cmath>

#include "common/check.h"

namespace taxorec::nn {

Mlp::Mlp(std::vector<size_t> dims, Rng* rng) : dims_(std::move(dims)) {
  TAXOREC_CHECK(dims_.size() >= 2);
  const size_t L = dims_.size() - 1;
  weights_.reserve(L);
  for (size_t l = 0; l < L; ++l) {
    Matrix w(dims_[l + 1], dims_[l]);
    w.FillGaussian(rng, std::sqrt(2.0 / static_cast<double>(dims_[l])));
    weights_.push_back(std::move(w));
    biases_.emplace_back(dims_[l + 1], 0.0);
    grad_weights_.emplace_back(dims_[l + 1], dims_[l]);
    grad_biases_.emplace_back(dims_[l + 1], 0.0);
  }
}

std::vector<double> Mlp::Forward(std::span<const double> x) {
  const std::span<const double> out = Predict(x, &cache_);
  return {out.begin(), out.end()};
}

std::span<const double> Mlp::Predict(std::span<const double> x,
                                     Scratch* scratch) const {
  TAXOREC_CHECK(x.size() == dims_.front());
  const size_t L = weights_.size();
  auto& act = scratch->act;
  auto& pre = scratch->pre;
  act.resize(L + 1);
  pre.resize(L);
  act[0].assign(x.begin(), x.end());
  for (size_t l = 0; l < L; ++l) {
    const size_t out_dim = dims_[l + 1];
    const size_t in_dim = dims_[l];
    pre[l].assign(out_dim, 0.0);
    for (size_t o = 0; o < out_dim; ++o) {
      double acc = biases_[l][o];
      const auto w_row = weights_[l].row(o);
      for (size_t i = 0; i < in_dim; ++i) acc += w_row[i] * act[l][i];
      pre[l][o] = acc;
    }
    act[l + 1] = pre[l];
    if (l + 1 < dims_.size() - 1) {  // ReLU on hidden layers only.
      for (double& v : act[l + 1]) v = v > 0.0 ? v : 0.0;
    }
  }
  return act[L];
}

std::vector<double> Mlp::Backward(std::span<const double> grad_out) {
  const size_t L = weights_.size();
  TAXOREC_CHECK(grad_out.size() == dims_.back());
  std::vector<double> delta(grad_out.begin(), grad_out.end());
  for (size_t li = L; li-- > 0;) {
    if (li + 1 < L) {
      // delta currently holds grad w.r.t. act[li+1]; apply ReLU mask of
      // layer li (hidden layers only).
      for (size_t o = 0; o < delta.size(); ++o) {
        if (cache_.pre[li][o] <= 0.0) delta[o] = 0.0;
      }
    }
    const size_t out_dim = dims_[li + 1];
    const size_t in_dim = dims_[li];
    std::vector<double> grad_in(in_dim, 0.0);
    for (size_t o = 0; o < out_dim; ++o) {
      grad_biases_[li][o] += delta[o];
      auto gw_row = grad_weights_[li].row(o);
      const auto w_row = weights_[li].row(o);
      for (size_t i = 0; i < in_dim; ++i) {
        gw_row[i] += delta[o] * cache_.act[li][i];
        grad_in[i] += delta[o] * w_row[i];
      }
    }
    delta = std::move(grad_in);
  }
  return delta;
}

void Mlp::Step(double lr) {
  for (size_t l = 0; l < weights_.size(); ++l) {
    weights_[l].Axpy(-lr, grad_weights_[l]);
    for (size_t o = 0; o < biases_[l].size(); ++o) {
      biases_[l][o] -= lr * grad_biases_[l][o];
    }
  }
  ZeroGrad();
}

void Mlp::ZeroGrad() {
  for (auto& g : grad_weights_) g.SetZero();
  for (auto& g : grad_biases_) {
    for (double& v : g) v = 0.0;
  }
}

}  // namespace taxorec::nn
