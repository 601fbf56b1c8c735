#include "baselines/cml.h"

#include "baselines/embedding_model.h"
#include "data/sampler.h"
#include "math/vec_ops.h"
#include "nn/losses.h"

namespace taxorec {

void Cml::BeginFit(const DataSplit& split, Rng* rng) {
  users_ = Matrix(split.num_users, config().dim);
  items_ = Matrix(split.num_items, config().dim);
  users_.FillGaussian(rng, 0.1);
  items_.FillGaussian(rng, 0.1);
  sampler_ =
      std::make_unique<TripletSampler>(&split.train, config().neg_sampling);
}

double Cml::FitEpoch(const DataSplit& split, int epoch, Rng* rng) {
  const size_t d = config().dim;
  std::vector<double> gu(d), gp(d), gq(d);
  const size_t steps = config().batches_per_epoch * config().batch_size;
  for (size_t s = 0; s < steps; ++s) {
    const Triplet t = sampler_->Sample(rng);
    auto u = users_.row(t.user);
    auto vp = items_.row(t.pos);
    auto vq = items_.row(t.neg);
    const double dp = vec::SqDist(u, vp);
    const double dq = vec::SqDist(u, vq);
    double dpos, dneg;
    if (nn::HingeTriplet(config().margin, dp, dq, &dpos, &dneg) <= 0.0) {
      continue;
    }
    vec::Zero(vec::Span(gu));
    vec::Zero(vec::Span(gp));
    vec::Zero(vec::Span(gq));
    EuclidSqDistGrad(u, vp, dpos, vec::Span(gu), vec::Span(gp));
    EuclidSqDistGrad(u, vq, dneg, vec::Span(gu), vec::Span(gq));
    vec::Axpy(-config().lr, vec::ConstSpan(gu), u);
    vec::Axpy(-config().lr, vec::ConstSpan(gp), vp);
    vec::Axpy(-config().lr, vec::ConstSpan(gq), vq);
    // CML's unit-ball constraint.
    vec::ClipNorm(u, 1.0);
    vec::ClipNorm(vp, 1.0);
    vec::ClipNorm(vq, 1.0);
  }
  return 0.0;
}

}  // namespace taxorec
