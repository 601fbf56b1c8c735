#include "baselines/sml.h"

#include "baselines/embedding_model.h"
#include "data/sampler.h"
#include "math/vec_ops.h"
#include "nn/losses.h"

namespace taxorec {

void Sml::BeginFit(const DataSplit& split, Rng* rng) {
  users_ = Matrix(split.num_users, config().dim);
  items_ = Matrix(split.num_items, config().dim);
  users_.FillGaussian(rng, 0.1);
  items_.FillGaussian(rng, 0.1);
  sampler_ =
      std::make_unique<TripletSampler>(&split.train, config().neg_sampling);
}

double Sml::FitEpoch(const DataSplit& split, int epoch, Rng* rng) {
  const size_t d = config().dim;
  const double item_margin = 0.5 * config().margin;
  std::vector<double> gu(d), gp(d), gq(d);
  const size_t steps = config().batches_per_epoch * config().batch_size;
  for (size_t s = 0; s < steps; ++s) {
    const Triplet t = sampler_->Sample(rng);
    auto u = users_.row(t.user);
    auto vp = items_.row(t.pos);
    auto vq = items_.row(t.neg);
    vec::Zero(vec::Span(gu));
    vec::Zero(vec::Span(gp));
    vec::Zero(vec::Span(gq));
    bool active = false;
    // User-centric term (as in CML).
    {
      const double dp = vec::SqDist(u, vp);
      const double dq = vec::SqDist(u, vq);
      double dpos, dneg;
      if (nn::HingeTriplet(config().margin, dp, dq, &dpos, &dneg) > 0.0) {
        EuclidSqDistGrad(u, vp, dpos, vec::Span(gu), vec::Span(gp));
        EuclidSqDistGrad(u, vq, dneg, vec::Span(gu), vec::Span(gq));
        active = true;
      }
    }
    // Symmetric item-centric term: the positive item should be closer to
    // the user than to the sampled negative item.
    {
      const double dp = vec::SqDist(vp, u);
      const double dq = vec::SqDist(vp, vq);
      double dpos, dneg;
      if (nn::HingeTriplet(item_margin, dp, dq, &dpos, &dneg) > 0.0) {
        EuclidSqDistGrad(vp, u, dpos, vec::Span(gp), vec::Span(gu));
        EuclidSqDistGrad(vp, vq, dneg, vec::Span(gp), vec::Span(gq));
        active = true;
      }
    }
    if (!active) continue;
    vec::Axpy(-config().lr, vec::ConstSpan(gu), u);
    vec::Axpy(-config().lr, vec::ConstSpan(gp), vp);
    vec::Axpy(-config().lr, vec::ConstSpan(gq), vq);
    vec::ClipNorm(u, 1.0);
    vec::ClipNorm(vp, 1.0);
    vec::ClipNorm(vq, 1.0);
  }
  return 0.0;
}

}  // namespace taxorec
