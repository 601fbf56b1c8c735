#include "baselines/transcf.h"

#include "baselines/embedding_model.h"
#include "data/sampler.h"
#include "math/vec_ops.h"
#include "nn/losses.h"

namespace taxorec {
namespace {

// dist = || (u + alpha_u ⊙ beta_v) - v ||^2 computed into scratch `shifted`.
double TranslatedSqDist(vec::ConstSpan u, vec::ConstSpan alpha,
                        vec::ConstSpan beta, vec::ConstSpan v,
                        vec::Span shifted) {
  for (size_t i = 0; i < u.size(); ++i) {
    shifted[i] = u[i] + alpha[i] * beta[i];
  }
  return vec::SqDist(shifted, v);
}

}  // namespace

void TransCf::BeginFit(const DataSplit& split, Rng* rng) {
  users_ = Matrix(split.num_users, config().dim);
  items_ = Matrix(split.num_items, config().dim);
  users_.FillGaussian(rng, 0.1);
  items_.FillGaussian(rng, 0.1);
  train_t_ = split.train.Transposed();
  sampler_ =
      std::make_unique<TripletSampler>(&split.train, config().neg_sampling);
}

double TransCf::FitEpoch(const DataSplit& split, int epoch, Rng* rng) {
  const size_t d = config().dim;
  std::vector<double> shifted(d), gu(d), gp(d), gq(d);
  // Refresh neighbourhood means (stop-gradient snapshot).
  RowMeans(split.train, items_, &user_nbr_);
  RowMeans(train_t_, users_, &item_nbr_);
  const size_t steps = config().batches_per_epoch * config().batch_size;
  for (size_t s = 0; s < steps; ++s) {
    const Triplet t = sampler_->Sample(rng);
    auto u = users_.row(t.user);
    auto vp = items_.row(t.pos);
    auto vq = items_.row(t.neg);
    const auto alpha = user_nbr_.row(t.user);
    const double dp = TranslatedSqDist(u, alpha, item_nbr_.row(t.pos), vp,
                                       vec::Span(shifted));
    const double dq = TranslatedSqDist(u, alpha, item_nbr_.row(t.neg), vq,
                                       vec::Span(shifted));
    double dpos, dneg;
    if (nn::HingeTriplet(config().margin, dp, dq, &dpos, &dneg) <= 0.0) {
      continue;
    }
    vec::Zero(vec::Span(gu));
    vec::Zero(vec::Span(gp));
    vec::Zero(vec::Span(gq));
    // Positive pair: shifted_p = u + alpha⊙beta_p. d/du passes through
    // unchanged (alpha, beta are constants).
    TranslatedSqDist(u, alpha, item_nbr_.row(t.pos), vp, vec::Span(shifted));
    EuclidSqDistGrad(vec::ConstSpan(shifted), vp, dpos, vec::Span(gu),
                     vec::Span(gp));
    TranslatedSqDist(u, alpha, item_nbr_.row(t.neg), vq, vec::Span(shifted));
    EuclidSqDistGrad(vec::ConstSpan(shifted), vq, dneg, vec::Span(gu),
                     vec::Span(gq));
    vec::Axpy(-config().lr, vec::ConstSpan(gu), u);
    vec::Axpy(-config().lr, vec::ConstSpan(gp), vp);
    vec::Axpy(-config().lr, vec::ConstSpan(gq), vq);
    vec::ClipNorm(u, 1.0);
    vec::ClipNorm(vp, 1.0);
    vec::ClipNorm(vq, 1.0);
  }
  return 0.0;
}

void TransCf::EndFit(const DataSplit& split) {
  // Final snapshot for scoring.
  RowMeans(split.train, items_, &user_nbr_);
  RowMeans(train_t_, users_, &item_nbr_);
}

void TransCf::ScoreItems(uint32_t user, std::span<double> out) const {
  const auto u = users_.row(user);
  const auto alpha = user_nbr_.row(user);
  std::vector<double> shifted(u.size());
  for (size_t v = 0; v < items_.rows(); ++v) {
    out[v] = -TranslatedSqDist(u, alpha, item_nbr_.row(v), items_.row(v),
                               vec::Span(shifted));
  }
}

}  // namespace taxorec
