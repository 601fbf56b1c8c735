// NeuMF (He et al., WWW 2017): neural collaborative filtering fusing a
// generalized matrix factorization (GMF) branch with an MLP branch.
// Simplifications vs. the original (documented in DESIGN.md): a fixed
// two-hidden-layer MLP tower and BPR pairwise training instead of
// pointwise log loss with sampled negatives.
#ifndef TAXOREC_BASELINES_NEUMF_H_
#define TAXOREC_BASELINES_NEUMF_H_

#include <memory>

#include "baselines/recommender.h"
#include "math/matrix.h"
#include "nn/mlp.h"

namespace taxorec {

class NeuMf : public Recommender {
 public:
  explicit NeuMf(const ModelConfig& config) : Recommender(config) {}

  std::string name() const override { return "NeuMF"; }
  void BeginFit(const DataSplit& split, Rng* rng) override;
  double FitEpoch(const DataSplit& split, int epoch, Rng* rng) override;
  void ScoreItems(uint32_t user, std::span<double> out) const override;
  void CheckHealth(HealthMonitor* monitor) const override {
    monitor->CheckFinite("gmf_users", gmf_users_);
    monitor->CheckFinite("gmf_items", gmf_items_);
    monitor->CheckFinite("mlp_users", mlp_users_);
    monitor->CheckFinite("mlp_items", mlp_items_);
  }

 private:
  /// Buffers for Score, so scoring a catalogue allocates once per call.
  struct ScoreScratch {
    std::vector<double> concat;
    nn::Mlp::Scratch tower;
  };

  double Score(uint32_t user, uint32_t item, ScoreScratch* scratch) const;

  size_t gmf_dim_ = 0;
  size_t mlp_dim_ = 0;
  Matrix gmf_users_, gmf_items_;  // GMF branch embeddings
  Matrix mlp_users_, mlp_items_;  // MLP branch embeddings
  std::vector<double> h_;         // GMF output weights
  std::unique_ptr<nn::Mlp> tower_;
  std::unique_ptr<TripletSampler> sampler_;
};

}  // namespace taxorec

#endif  // TAXOREC_BASELINES_NEUMF_H_
