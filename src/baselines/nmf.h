// NMF (Lee & Seung, 1999): non-negative matrix factorization of the binary
// implicit-feedback matrix with multiplicative updates for the squared
// loss; scores are reconstructed inner products.
#ifndef TAXOREC_BASELINES_NMF_H_
#define TAXOREC_BASELINES_NMF_H_

#include "baselines/recommender.h"
#include "math/csr.h"
#include "math/matrix.h"

namespace taxorec {

class Nmf : public Recommender {
 public:
  explicit Nmf(const ModelConfig& config) : Recommender(config) {}

  std::string name() const override { return "NMF"; }
  void BeginFit(const DataSplit& split, Rng* rng) override;
  /// One multiplicative update of both factors.
  double FitEpoch(const DataSplit& split, int epoch, Rng* rng) override;

 private:
  ScoringSnapshot scoring_rows() const override {
    return {ScoreKernel::kDot, &w_, &h_};
  }

  Matrix w_;  // users × d
  Matrix h_;  // items × d (H^T of the classical formulation)
  CsrMatrix xt_;  // X^T of the training matrix X
};

}  // namespace taxorec

#endif  // TAXOREC_BASELINES_NMF_H_
