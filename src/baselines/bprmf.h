// BPRMF (Rendle et al., UAI 2009): matrix factorization trained with the
// Bayesian personalized-ranking loss over sampled triplets.
#ifndef TAXOREC_BASELINES_BPRMF_H_
#define TAXOREC_BASELINES_BPRMF_H_

#include <memory>

#include "baselines/recommender.h"
#include "math/matrix.h"

namespace taxorec {

class BprMf : public Recommender {
 public:
  explicit BprMf(const ModelConfig& config) : Recommender(config) {}

  std::string name() const override { return "BPRMF"; }
  void BeginFit(const DataSplit& split, Rng* rng) override;
  double FitEpoch(const DataSplit& split, int epoch, Rng* rng) override;

 private:
  ScoringSnapshot scoring_rows() const override {
    return {ScoreKernel::kDot, &users_, &items_};
  }

  Matrix users_;
  Matrix items_;
  std::unique_ptr<TripletSampler> sampler_;
};

}  // namespace taxorec

#endif  // TAXOREC_BASELINES_BPRMF_H_
