// NGCF (Wang et al., SIGIR 2019): neural graph collaborative filtering.
// Each layer propagates neighbour embeddings, applies a learned linear
// transform and a LeakyReLU, and the final representation sums all layers.
// Simplification vs. the original (documented in DESIGN.md): the
// bi-interaction (element-wise) term is dropped and a single weight matrix
// per layer is used: z^{l+1} = LeakyReLU((z^l + P z^l) W_l).
#ifndef TAXOREC_BASELINES_NGCF_H_
#define TAXOREC_BASELINES_NGCF_H_

#include <memory>
#include <vector>

#include "baselines/recommender.h"
#include "math/csr.h"
#include "math/matrix.h"

namespace taxorec {

class Ngcf : public Recommender {
 public:
  explicit Ngcf(const ModelConfig& config) : Recommender(config) {}

  std::string name() const override { return "NGCF"; }
  void BeginFit(const DataSplit& split, Rng* rng) override;
  double FitEpoch(const DataSplit& split, int epoch, Rng* rng) override;
  void EndFit(const DataSplit& split) override;

 private:
  ScoringSnapshot scoring_rows() const override {
    return {ScoreKernel::kDot, &users_out_, &items_out_};
  }

  // Sized by BeginFit, reused by every batch, freed by EndFit.
  struct StepBuffers {
    std::unique_ptr<TripletSampler> sampler;
    std::vector<Triplet> batch;
    std::vector<Matrix> zu, zv;        // layer outputs, 0..L
    std::vector<Matrix> su, sv;        // propagated sums per layer, 0..L-1
    std::vector<Matrix> pre_u, pre_v;  // pre-activations per layer, 0..L-1
    Matrix up_u, up_v;                 // gradient on the outputs
    Matrix au, av, next_au, next_av;   // ... on z^{l+1} and z^l, walking down
    Matrix gsu, gsv;                   // ... on the propagated sums
    std::vector<Matrix> grad_w;        // ... on the weights, 0..L-1
    Matrix gw_v;                       // the item side's share of one
  };

  /// Recomputes the outputs and the layer caches from the current leaves.
  void Forward();

  CsrMatrix pui_, piu_, pui_t_, piu_t_;
  Matrix users0_, items0_;
  std::vector<Matrix> weights_;  // one d×d matrix per layer
  Matrix users_out_, items_out_;
  StepBuffers step_;
};

}  // namespace taxorec

#endif  // TAXOREC_BASELINES_NGCF_H_
