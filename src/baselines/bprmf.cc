#include "baselines/bprmf.h"

#include "data/sampler.h"
#include "math/vec_ops.h"
#include "nn/losses.h"

namespace taxorec {
namespace {

constexpr double kL2 = 1e-4;  // weight decay on touched rows

}  // namespace

void BprMf::BeginFit(const DataSplit& split, Rng* rng) {
  users_ = Matrix(split.num_users, config().dim);
  items_ = Matrix(split.num_items, config().dim);
  users_.FillGaussian(rng, 0.1);
  items_.FillGaussian(rng, 0.1);
  sampler_ =
      std::make_unique<TripletSampler>(&split.train, config().neg_sampling);
}

double BprMf::FitEpoch(const DataSplit& split, int epoch, Rng* rng) {
  const size_t d = config().dim;
  const double lr = config().lr;
  const size_t steps = config().batches_per_epoch * config().batch_size;
  for (size_t s = 0; s < steps; ++s) {
    const Triplet t = sampler_->Sample(rng);
    auto u = users_.row(t.user);
    auto vp = items_.row(t.pos);
    auto vq = items_.row(t.neg);
    const double diff = vec::Dot(u, vp) - vec::Dot(u, vq);
    double ddiff;
    nn::Bpr(diff, &ddiff);
    // d diff/du = vp - vq; d diff/dvp = u; d diff/dvq = -u.
    for (size_t i = 0; i < d; ++i) {
      const double gu = ddiff * (vp[i] - vq[i]) + kL2 * u[i];
      const double gp = ddiff * u[i] + kL2 * vp[i];
      const double gq = -ddiff * u[i] + kL2 * vq[i];
      u[i] -= lr * gu;
      vp[i] -= lr * gp;
      vq[i] -= lr * gq;
    }
  }
  return 0.0;
}

}  // namespace taxorec
