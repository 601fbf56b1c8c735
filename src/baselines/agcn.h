// AGCN (Wu et al., SIGIR 2020): adaptive graph convolution with joint item
// recommendation and attribute inference. Item leaf embeddings are
// augmented with their (learned) tag aggregates before LightGCN-style
// propagation, and an attribute-reconstruction head predicts each item's
// tags from its propagated embedding. Simplification vs. the original
// (documented in DESIGN.md): a single BCE attribute head over sampled
// positive/negative tags on the ranking batch items.
#ifndef TAXOREC_BASELINES_AGCN_H_
#define TAXOREC_BASELINES_AGCN_H_

#include <memory>
#include <vector>

#include "baselines/recommender.h"
#include "math/csr.h"
#include "math/matrix.h"
#include "nn/gcn.h"

namespace taxorec {

class Agcn : public Recommender {
 public:
  explicit Agcn(const ModelConfig& config) : Recommender(config) {}

  std::string name() const override { return "AGCN"; }
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
    Matrix up_u, up_v;        // gradient on the propagated outputs
    Matrix leaf_gu, leaf_gv;  // ... on the leaves
    Matrix grad_tags;
  };

  void Propagate();

  const CsrMatrix* item_tags_ = nullptr;
  std::unique_ptr<nn::LightGcnPropagation> gcn_;
  Matrix users0_, items0_;  // learned leaves
  Matrix tags_;             // learned tag table (dim-sized)
  Matrix items_aug_;        // items0_ + mean tag embedding (leaf input)
  Matrix users_out_, items_out_;
  StepBuffers step_;
};

}  // namespace taxorec

#endif  // TAXOREC_BASELINES_AGCN_H_
