// CMLF: collaborative metric learning with tag features (the tag-aware CML
// variant of Hsieh et al., WWW 2017, §"feature loss", restricted to item
// tags as in the paper's §V-A4). The effective item point is the learned
// item embedding plus the mean of its (learned) tag embeddings; gradients
// flow into both tables.
#ifndef TAXOREC_BASELINES_CMLF_H_
#define TAXOREC_BASELINES_CMLF_H_

#include <memory>

#include "baselines/recommender.h"
#include "math/csr.h"
#include "math/matrix.h"

namespace taxorec {

class Cmlf : public Recommender {
 public:
  explicit Cmlf(const ModelConfig& config) : Recommender(config) {}

  std::string name() const override { return "CMLF"; }
  void BeginFit(const DataSplit& split, Rng* rng) override;
  double FitEpoch(const DataSplit& split, int epoch, Rng* rng) override;
  void ScoreItems(uint32_t user, std::span<double> out) const override;
  void CheckHealth(HealthMonitor* monitor) const override {
    monitor->CheckFinite("users", users_);
    monitor->CheckFinite("items", items_);
    monitor->CheckFinite("tags", tags_);
  }

 private:
  /// Writes the effective item point (item emb + mean tag emb) into `out`.
  void ItemPoint(uint32_t item, std::span<double> out) const;

  const CsrMatrix* item_tags_ = nullptr;
  Matrix users_;
  Matrix items_;
  Matrix tags_;
  std::unique_ptr<TripletSampler> sampler_;
};

}  // namespace taxorec

#endif  // TAXOREC_BASELINES_CMLF_H_
