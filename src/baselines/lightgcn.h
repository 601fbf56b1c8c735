// LightGCN (He et al., SIGIR 2020): linear graph convolution over the
// user-item bipartite graph; the final representation is the mean of the
// layer-0 embedding and all propagated layers; BPR training.
#ifndef TAXOREC_BASELINES_LIGHTGCN_H_
#define TAXOREC_BASELINES_LIGHTGCN_H_

#include <memory>
#include <vector>

#include "baselines/recommender.h"
#include "math/matrix.h"
#include "nn/gcn.h"

namespace taxorec {

class LightGcn : public Recommender {
 public:
  explicit LightGcn(const ModelConfig& config) : Recommender(config) {}

  std::string name() const override { return "LightGCN"; }
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
    nn::GcnContext ctx;
    Matrix grad_u, grad_v;    // on the propagated outputs
    Matrix leaf_gu, leaf_gv;  // on the leaves
  };

  /// Recomputes the propagated output embeddings from the current leaves.
  void Propagate();

  std::unique_ptr<nn::LightGcnPropagation> gcn_;
  Matrix users0_, items0_;      // leaf embeddings
  Matrix users_out_, items_out_;  // propagated means
  StepBuffers step_;
};

}  // namespace taxorec

#endif  // TAXOREC_BASELINES_LIGHTGCN_H_
