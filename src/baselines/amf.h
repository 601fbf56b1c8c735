// AMF (Hou et al., WWW 2019): aspect-based matrix factorization. The
// predicted preference adds an aspect term to the CF inner product:
// score(u, v) = <u_cf, v_cf> + <u_aspect, mean tag embedding of v>.
// Aspects are the item tags (the paper's tag-based baseline protocol).
#ifndef TAXOREC_BASELINES_AMF_H_
#define TAXOREC_BASELINES_AMF_H_

#include <memory>

#include "baselines/recommender.h"
#include "math/csr.h"
#include "math/matrix.h"

namespace taxorec {

class Amf : public Recommender {
 public:
  explicit Amf(const ModelConfig& config) : Recommender(config) {}

  std::string name() const override { return "AMF"; }
  void BeginFit(const DataSplit& split, Rng* rng) override;
  double FitEpoch(const DataSplit& split, int epoch, Rng* rng) override;
  void ScoreItems(uint32_t user, std::span<double> out) const override;
  void CheckHealth(HealthMonitor* monitor) const override {
    monitor->CheckFinite("users_cf", users_cf_);
    monitor->CheckFinite("items_cf", items_cf_);
    monitor->CheckFinite("users_aspect", users_aspect_);
    monitor->CheckFinite("tags", tags_);
  }

 private:
  double Score(uint32_t user, uint32_t item) const;

  const CsrMatrix* item_tags_ = nullptr;
  size_t cf_dim_ = 0;
  Matrix users_cf_, items_cf_;
  Matrix users_aspect_;  // num_users × tag_dim
  Matrix tags_;          // num_tags × tag_dim
  std::unique_ptr<TripletSampler> sampler_;
};

}  // namespace taxorec

#endif  // TAXOREC_BASELINES_AMF_H_
