#include "baselines/amf.h"

#include "data/sampler.h"
#include "math/vec_ops.h"
#include "nn/losses.h"

namespace taxorec {

double Amf::Score(uint32_t user, uint32_t item) const {
  double score = vec::Dot(users_cf_.row(user), items_cf_.row(item));
  const auto tags = item_tags_->RowCols(item);
  if (!tags.empty()) {
    const auto ua = users_aspect_.row(user);
    const double w = 1.0 / static_cast<double>(tags.size());
    for (uint32_t t : tags) score += w * vec::Dot(ua, tags_.row(t));
  }
  return score;
}

void Amf::BeginFit(const DataSplit& split, Rng* rng) {
  item_tags_ = &split.item_tags;
  cf_dim_ = config().dim - config().tag_dim;
  users_cf_ = Matrix(split.num_users, cf_dim_);
  items_cf_ = Matrix(split.num_items, cf_dim_);
  users_aspect_ = Matrix(split.num_users, config().tag_dim);
  tags_ = Matrix(split.num_tags, config().tag_dim);
  users_cf_.FillGaussian(rng, 0.1);
  items_cf_.FillGaussian(rng, 0.1);
  users_aspect_.FillGaussian(rng, 0.1);
  tags_.FillGaussian(rng, 0.1);
  sampler_ =
      std::make_unique<TripletSampler>(&split.train, config().neg_sampling);
}

double Amf::FitEpoch(const DataSplit& split, int epoch, Rng* rng) {
  std::vector<double> ga(config().tag_dim);

  // Applies the gradient chain of one scored pair with dLoss/dScore = c.
  auto backprop_pair = [&](uint32_t user, uint32_t item, double c) {
    auto u = users_cf_.row(user);
    auto v = items_cf_.row(item);
    for (size_t i = 0; i < cf_dim_; ++i) {
      const double gu = c * v[i];
      const double gv = c * u[i];
      u[i] -= config().lr * gu;
      v[i] -= config().lr * gv;
    }
    const auto tags = item_tags_->RowCols(item);
    if (tags.empty()) return;
    auto ua = users_aspect_.row(user);
    const double w = 1.0 / static_cast<double>(tags.size());
    vec::Zero(vec::Span(ga));
    for (uint32_t t : tags) {
      vec::Axpy(w, tags_.row(t), vec::Span(ga));  // d score / d ua
      vec::Axpy(-config().lr * c * w, ua, tags_.row(t));
    }
    vec::Axpy(-config().lr * c, vec::ConstSpan(ga), ua);
  };

  const size_t steps = config().batches_per_epoch * config().batch_size;
  for (size_t s = 0; s < steps; ++s) {
    const Triplet t = sampler_->Sample(rng);
    double ddiff;
    nn::Bpr(Score(t.user, t.pos) - Score(t.user, t.neg), &ddiff);
    backprop_pair(t.user, t.pos, ddiff);
    backprop_pair(t.user, t.neg, -ddiff);
  }
  return 0.0;
}

void Amf::ScoreItems(uint32_t user, std::span<double> out) const {
  for (size_t v = 0; v < items_cf_.rows(); ++v) {
    out[v] = Score(user, static_cast<uint32_t>(v));
  }
}

}  // namespace taxorec
