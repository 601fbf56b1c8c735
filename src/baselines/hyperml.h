// HyperML (Vinh Tran et al., WSDM 2020): metric learning in hyperbolic
// space. Users and items are Lorentz-model points; the LMNN hinge loss is
// applied to squared hyperbolic distances and parameters are updated with
// Riemannian SGD. This model doubles as the "Hyper + CML" row of the
// paper's ablation (Table III).
//
// Besides TaxoRecModel, the one model with a training state to save, so
// the fault-tolerant training loop can checkpoint it and roll it back
// between epochs. Note the per-step RNG is the caller's sequential stream:
// a clean loop run is bit-identical to Fit(), but a run resumed from disk
// replays the remaining epochs with a fresh stream (still deterministic;
// documented in DESIGN.md "Failure model & recovery").
#ifndef TAXOREC_BASELINES_HYPERML_H_
#define TAXOREC_BASELINES_HYPERML_H_

#include <memory>

#include "baselines/recommender.h"
#include "math/matrix.h"

namespace taxorec {

class HyperMl : public Recommender {
 public:
  explicit HyperMl(const ModelConfig& config) : Recommender(config) {}

  std::string name() const override { return "HyperML"; }
  void BeginFit(const DataSplit& split, Rng* rng) override;
  double FitEpoch(const DataSplit& split, int epoch, Rng* rng) override;
  Checkpoint SaveState() const override;
  Status RestoreState(const Checkpoint& ckpt,
                      const DataSplit& split) override;

 private:
  ScoringSnapshot scoring_rows() const override {
    return {ScoreKernel::kNegLorentzSqDist, &users_, &items_};
  }

  Matrix users_;  // num_users × (dim+1), Lorentz points
  Matrix items_;  // num_items × (dim+1)
  std::unique_ptr<TripletSampler> sampler_;
};

}  // namespace taxorec

#endif  // TAXOREC_BASELINES_HYPERML_H_
