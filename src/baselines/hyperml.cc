#include "baselines/hyperml.h"

#include <limits>

#include "common/fault_injection.h"
#include "data/sampler.h"
#include "hyperbolic/lorentz.h"
#include "math/vec_ops.h"
#include "nn/losses.h"

namespace taxorec {

void HyperMl::BeginFit(const DataSplit& split, Rng* rng) {
  const size_t d1 = config().dim + 1;
  users_ = Matrix(split.num_users, d1);
  items_ = Matrix(split.num_items, d1);
  for (size_t u = 0; u < users_.rows(); ++u) {
    lorentz::RandomPoint(rng, 0.1, users_.row(u));
  }
  for (size_t v = 0; v < items_.rows(); ++v) {
    lorentz::RandomPoint(rng, 0.1, items_.row(v));
  }
  sampler_ =
      std::make_unique<TripletSampler>(&split.train, config().neg_sampling);
}

double HyperMl::FitEpoch(const DataSplit& split, int epoch, Rng* rng) {
  const size_t d1 = config().dim + 1;
  std::vector<double> gu(d1), gp(d1), gq(d1);
  double epoch_loss = 0.0;
  // Deterministic fault site (see common/fault_injection.h): poisons the
  // first update of the epoch when armed.
  bool inject = TAXOREC_FAULT(faults::kGradNan, epoch);
  const size_t steps = config().batches_per_epoch * config().batch_size;
  for (size_t s = 0; s < steps; ++s) {
    const Triplet t = sampler_->Sample(rng);
    auto u = users_.row(t.user);
    auto vp = items_.row(t.pos);
    auto vq = items_.row(t.neg);
    const double dp = lorentz::SqDistance(u, vp);
    const double dq = lorentz::SqDistance(u, vq);
    double dpos, dneg;
    const double hinge =
        nn::HingeTriplet(config().margin, dp, dq, &dpos, &dneg);
    if (hinge <= 0.0) continue;
    epoch_loss += hinge;
    vec::Zero(vec::Span(gu));
    vec::Zero(vec::Span(gp));
    vec::Zero(vec::Span(gq));
    lorentz::SqDistanceGrad(u, vp, dpos, vec::Span(gu), vec::Span(gp));
    lorentz::SqDistanceGrad(u, vq, dneg, vec::Span(gu), vec::Span(gq));
    if (inject) {
      gu[0] = std::numeric_limits<double>::quiet_NaN();
      inject = false;
    }
    if (config().grad_clip > 0.0) {
      vec::ClipNorm(vec::Span(gu), config().grad_clip);
      vec::ClipNorm(vec::Span(gp), config().grad_clip);
      vec::ClipNorm(vec::Span(gq), config().grad_clip);
    }
    lorentz::RsgdStep(u, vec::Span(gu), config().lr);
    lorentz::RsgdStep(vp, vec::Span(gp), config().lr);
    lorentz::RsgdStep(vq, vec::Span(gq), config().lr);
  }
  return epoch_loss;
}

Checkpoint HyperMl::SaveState() const {
  Checkpoint ckpt;
  ckpt.Put("users", users_);
  ckpt.Put("items", items_);
  return ckpt;
}

Status HyperMl::RestoreState(const Checkpoint& ckpt, const DataSplit& split) {
  const Matrix* users = ckpt.Get("users");
  const Matrix* items = ckpt.Get("items");
  if (users == nullptr || items == nullptr) {
    return Status::NotFound("HyperML checkpoint missing users/items");
  }
  const size_t d1 = config().dim + 1;
  if (users->rows() != split.num_users || users->cols() != d1 ||
      items->rows() != split.num_items || items->cols() != d1) {
    return Status::InvalidArgument("HyperML checkpoint shape mismatch");
  }
  users_ = *users;
  items_ = *items;
  sampler_ =
      std::make_unique<TripletSampler>(&split.train, config().neg_sampling);
  return Status::OK();
}

}  // namespace taxorec
