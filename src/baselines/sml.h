// SML (Li et al., AAAI 2020): symmetric metric learning. Extends CML with
// an item-centric triplet term that pushes the sampled negative away from
// the positive item as well. Simplification vs. the original: the two
// margins are fixed hyperparameters rather than learned per-entity
// (documented in DESIGN.md).
#ifndef TAXOREC_BASELINES_SML_H_
#define TAXOREC_BASELINES_SML_H_

#include <memory>

#include "baselines/recommender.h"
#include "math/matrix.h"

namespace taxorec {

class Sml : public Recommender {
 public:
  explicit Sml(const ModelConfig& config) : Recommender(config) {}

  std::string name() const override { return "SML"; }
  void BeginFit(const DataSplit& split, Rng* rng) override;
  double FitEpoch(const DataSplit& split, int epoch, Rng* rng) override;

 private:
  ScoringSnapshot scoring_rows() const override {
    return {ScoreKernel::kNegSqDist, &users_, &items_};
  }

  Matrix users_;
  Matrix items_;
  std::unique_ptr<TripletSampler> sampler_;
};

}  // namespace taxorec

#endif  // TAXOREC_BASELINES_SML_H_
