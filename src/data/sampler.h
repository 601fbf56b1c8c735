// Triplet sampling for pairwise ranking losses.
#ifndef TAXOREC_DATA_SAMPLER_H_
#define TAXOREC_DATA_SAMPLER_H_

#include <vector>

#include "data/dataset.h"
#include "math/rng.h"

namespace taxorec {

/// A (user, positive item, negative item) training triplet.
struct Triplet {
  uint32_t user = 0;
  uint32_t pos = 0;
  uint32_t neg = 0;
};

/// How negative items are drawn.
enum class NegativeSampling {
  /// Uniform over the catalogue (the standard BPR/CML choice).
  kUniform,
  /// Proportional to training popularity — harder negatives that sharpen
  /// the popularity-debiasing of ranking losses.
  kPopularity,
};

/// Triplet sampler over the training matrix: positives are drawn uniformly
/// from training interactions; negatives per the chosen strategy, always
/// excluding the user's training items.
class TripletSampler {
 public:
  explicit TripletSampler(
      const CsrMatrix* train,
      NegativeSampling strategy = NegativeSampling::kUniform);

  /// Draws one triplet. Requires at least one training interaction.
  Triplet Sample(Rng* rng) const;

  /// Draws a negative item for `user` (not in the user's training row).
  uint32_t SampleNegative(uint32_t user, Rng* rng) const;

  /// Fills `out` with n triplets.
  void SampleBatch(Rng* rng, size_t n, std::vector<Triplet>* out) const;

 private:
  const CsrMatrix* train_;  // not owned
  NegativeSampling strategy_;
  std::vector<std::pair<uint32_t, uint32_t>> positives_;
  /// Cumulative popularity weights for kPopularity (size num_items).
  std::vector<double> popularity_cdf_;
};

}  // namespace taxorec

#endif  // TAXOREC_DATA_SAMPLER_H_
