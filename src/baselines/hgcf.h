// HGCF (Sun et al., WWW 2021): hyperbolic graph convolution for
// collaborative filtering. Lorentz embeddings are mapped to the tangent
// space at the origin, propagated with the bipartite GCN, mapped back, and
// trained with a margin loss on hyperbolic distances via Riemannian SGD.
// This is the strongest tag-free baseline in Table II and the closest
// relative of TaxoRec (TaxoRec = HGCF + tag channel + taxonomy): the model
// is one hyperbolic nn::GcnChannel, the channel type TaxoRec runs twice.
#ifndef TAXOREC_BASELINES_HGCF_H_
#define TAXOREC_BASELINES_HGCF_H_

#include <memory>
#include <vector>

#include "baselines/recommender.h"
#include "math/matrix.h"
#include "nn/gcn.h"

namespace taxorec {

class Hgcf : public Recommender {
 public:
  explicit Hgcf(const ModelConfig& config) : Recommender(config) {}

  std::string name() const override { return "HGCF"; }
  void BeginFit(const DataSplit& split, Rng* rng) override;
  double FitEpoch(const DataSplit& split, int epoch, Rng* rng) override;
  void EndFit(const DataSplit& split) override;
  /// Scans the leaves: between BeginFit and EndFit the outputs are current
  /// only at the last batch's rows.
  void CheckHealth(HealthMonitor* monitor) const override;

 private:
  ScoringSnapshot scoring_rows() const override {
    return {ScoreKernel::kNegLorentzSqDist, &channel_.out_u(),
            &channel_.out_v()};
  }

  std::unique_ptr<nn::BipartiteGcn> gcn_;
  nn::GcnChannel channel_{/*hyperbolic=*/true};
  Matrix users0_, items0_;  // Lorentz leaves, (dim+1) coords
  std::unique_ptr<TripletSampler> sampler_;
  std::vector<Triplet> batch_;
  nn::BatchRows rows_;  // batch_'s users and items
};

}  // namespace taxorec

#endif  // TAXOREC_BASELINES_HGCF_H_
