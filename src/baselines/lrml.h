// LRML (Tay et al., WWW 2018): latent relational metric learning. Each
// user-item pair induces a latent translation vector r via attention over
// a shared memory module; the metric is ||u + r - v||^2. Simplification
// vs. the original (documented in DESIGN.md): a small fixed number of
// memory slices (10) and hinge loss on squared distances.
#ifndef TAXOREC_BASELINES_LRML_H_
#define TAXOREC_BASELINES_LRML_H_

#include <memory>

#include "baselines/recommender.h"
#include "math/matrix.h"

namespace taxorec {

class Lrml : public Recommender {
 public:
  explicit Lrml(const ModelConfig& config) : Recommender(config) {}

  std::string name() const override { return "LRML"; }
  void BeginFit(const DataSplit& split, Rng* rng) override;
  double FitEpoch(const DataSplit& split, int epoch, Rng* rng) override;
  void ScoreItems(uint32_t user, std::span<double> out) const override;
  void CheckHealth(HealthMonitor* monitor) const override {
    monitor->CheckFinite("users", users_);
    monitor->CheckFinite("items", items_);
    monitor->CheckFinite("keys", keys_);
    monitor->CheckFinite("memory", memory_);
  }

 private:
  static constexpr size_t kMemorySlices = 10;

  /// Computes r for the pair (u, v) and returns ||u + r - v||^2. Caches the
  /// attention weights in *attn (size kMemorySlices) and r in *rel.
  double PairSqDist(std::span<const double> u, std::span<const double> v,
                    std::span<double> attn, std::span<double> rel) const;

  Matrix users_;
  Matrix items_;
  Matrix keys_;    // kMemorySlices × d
  Matrix memory_;  // kMemorySlices × d
  std::unique_ptr<TripletSampler> sampler_;
};

}  // namespace taxorec

#endif  // TAXOREC_BASELINES_LRML_H_
