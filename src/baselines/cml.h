// CML (Hsieh et al., WWW 2017): collaborative metric learning. Users and
// items live in a shared Euclidean unit ball; the hinge loss pulls positive
// items inside the margin and pushes sampled negatives out.
#ifndef TAXOREC_BASELINES_CML_H_
#define TAXOREC_BASELINES_CML_H_

#include <memory>

#include "baselines/recommender.h"
#include "math/matrix.h"

namespace taxorec {

class Cml : public Recommender {
 public:
  explicit Cml(const ModelConfig& config) : Recommender(config) {}

  std::string name() const override { return "CML"; }
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

#endif  // TAXOREC_BASELINES_CML_H_
