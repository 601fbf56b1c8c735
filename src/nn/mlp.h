// Small fully-connected network with manual backprop (used by the NeuMF
// and LRML baselines). Hidden layers use ReLU, the output layer is linear.
// Single-example API: Forward caches activations, Backward accumulates
// weight gradients and returns the input gradient, Step applies SGD.
#ifndef TAXOREC_NN_MLP_H_
#define TAXOREC_NN_MLP_H_

#include <vector>

#include "math/matrix.h"
#include "math/rng.h"

namespace taxorec::nn {

class Mlp {
 public:
  /// dims = {in, hidden..., out}. Weights ~ N(0, sqrt(2/fan_in)).
  Mlp(std::vector<size_t> dims, Rng* rng);

  /// Computes the output for x; caches activations for Backward.
  std::vector<double> Forward(std::span<const double> x);

  /// Activations of one forward pass: act[0] = input, act[l+1] =
  /// post-activation output of layer l; pre[l] = pre-activation. Reusing
  /// one across calls saves the allocations.
  struct Scratch {
    std::vector<std::vector<double>> act;
    std::vector<std::vector<double>> pre;
  };

  /// Forward into `scratch` instead of the activation cache: the same
  /// output bits, and safe to call concurrently with one scratch per caller
  /// (the scoring path). The result views `scratch` until its next use.
  std::span<const double> Predict(std::span<const double> x,
                                  Scratch* scratch) const;

  /// Backpropagates grad_out (w.r.t. the last Forward output); accumulates
  /// parameter gradients and returns dLoss/dx.
  std::vector<double> Backward(std::span<const double> grad_out);

  /// SGD update with the accumulated gradients, then clears them.
  void Step(double lr);

  /// Clears accumulated parameter gradients.
  void ZeroGrad();

 private:
  std::vector<size_t> dims_;
  std::vector<Matrix> weights_;      // layer l: dims[l+1] × dims[l]
  std::vector<std::vector<double>> biases_;
  std::vector<Matrix> grad_weights_;
  std::vector<std::vector<double>> grad_biases_;
  Scratch cache_;  // activations of the last Forward, for Backward
};

}  // namespace taxorec::nn

#endif  // TAXOREC_NN_MLP_H_
