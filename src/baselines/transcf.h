// TransCF (Park et al., ICDM 2018): collaborative translational metric
// learning. The user-item distance is ||u + r_uv - v||^2 where the
// translation vector r_uv is built from the pair's neighbourhoods
// (r_uv = alpha_u ⊙ beta_v, with alpha_u the mean embedding of the user's
// items and beta_v the mean embedding of the item's users).
// Simplification vs. the original (documented in DESIGN.md): neighbourhood
// means are refreshed once per epoch and treated as constants during the
// gradient step.
#ifndef TAXOREC_BASELINES_TRANSCF_H_
#define TAXOREC_BASELINES_TRANSCF_H_

#include <memory>

#include "baselines/recommender.h"
#include "math/csr.h"
#include "math/matrix.h"

namespace taxorec {

class TransCf : public Recommender {
 public:
  explicit TransCf(const ModelConfig& config) : Recommender(config) {}

  std::string name() const override { return "TransCF"; }
  void BeginFit(const DataSplit& split, Rng* rng) override;
  double FitEpoch(const DataSplit& split, int epoch, Rng* rng) override;
  void EndFit(const DataSplit& split) override;
  void ScoreItems(uint32_t user, std::span<double> out) const override;
  void CheckHealth(HealthMonitor* monitor) const override {
    monitor->CheckFinite("users", users_);
    monitor->CheckFinite("items", items_);
  }

 private:
  Matrix users_;
  Matrix items_;
  Matrix user_nbr_;  // alpha_u: mean embedding of the user's train items
  Matrix item_nbr_;  // beta_v: mean embedding of the item's train users
  CsrMatrix train_t_;  // the training matrix transposed (item → users)
  std::unique_ptr<TripletSampler> sampler_;
};

}  // namespace taxorec

#endif  // TAXOREC_BASELINES_TRANSCF_H_
