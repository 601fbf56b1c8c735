#include "baselines/cmlf.h"

#include "baselines/embedding_model.h"
#include "data/sampler.h"
#include "math/vec_ops.h"
#include "nn/losses.h"

namespace taxorec {

void Cmlf::ItemPoint(uint32_t item, std::span<double> out) const {
  vec::Copy(items_.row(item), out);
  const auto tags = item_tags_->RowCols(item);
  if (tags.empty()) return;
  const double w = 1.0 / static_cast<double>(tags.size());
  for (uint32_t t : tags) vec::Axpy(w, tags_.row(t), out);
}

void Cmlf::BeginFit(const DataSplit& split, Rng* rng) {
  const size_t d = config().dim;
  item_tags_ = &split.item_tags;
  users_ = Matrix(split.num_users, d);
  items_ = Matrix(split.num_items, d);
  tags_ = Matrix(split.num_tags, d);
  users_.FillGaussian(rng, 0.1);
  items_.FillGaussian(rng, 0.1);
  tags_.FillGaussian(rng, 0.05);
  sampler_ =
      std::make_unique<TripletSampler>(&split.train, config().neg_sampling);
}

double Cmlf::FitEpoch(const DataSplit& split, int epoch, Rng* rng) {
  const size_t d = config().dim;
  std::vector<double> pp(d), pq(d), gu(d), gp(d), gq(d);

  // Applies -lr*g to the item embedding and spreads it over the item's tag
  // embeddings (chain through the mean).
  auto update_item = [&](uint32_t item, vec::ConstSpan g) {
    vec::Axpy(-config().lr, g, items_.row(item));
    vec::ClipNorm(items_.row(item), 1.0);
    const auto tags = item_tags_->RowCols(item);
    if (tags.empty()) return;
    const double w = 1.0 / static_cast<double>(tags.size());
    for (uint32_t t : tags) {
      vec::Axpy(-config().lr * w, g, tags_.row(t));
      vec::ClipNorm(tags_.row(t), 1.0);
    }
  };

  const size_t steps = config().batches_per_epoch * config().batch_size;
  for (size_t s = 0; s < steps; ++s) {
    const Triplet t = sampler_->Sample(rng);
    auto u = users_.row(t.user);
    ItemPoint(t.pos, vec::Span(pp));
    ItemPoint(t.neg, vec::Span(pq));
    double dpos, dneg;
    if (nn::HingeTriplet(config().margin, vec::SqDist(u, vec::ConstSpan(pp)),
                         vec::SqDist(u, vec::ConstSpan(pq)), &dpos,
                         &dneg) <= 0.0) {
      continue;
    }
    vec::Zero(vec::Span(gu));
    vec::Zero(vec::Span(gp));
    vec::Zero(vec::Span(gq));
    EuclidSqDistGrad(u, vec::ConstSpan(pp), dpos, vec::Span(gu),
                     vec::Span(gp));
    EuclidSqDistGrad(u, vec::ConstSpan(pq), dneg, vec::Span(gu),
                     vec::Span(gq));
    vec::Axpy(-config().lr, vec::ConstSpan(gu), u);
    vec::ClipNorm(u, 1.0);
    update_item(t.pos, vec::ConstSpan(gp));
    update_item(t.neg, vec::ConstSpan(gq));
  }
  return 0.0;
}

void Cmlf::ScoreItems(uint32_t user, std::span<double> out) const {
  const auto u = users_.row(user);
  std::vector<double> p(users_.cols());
  for (size_t v = 0; v < items_.rows(); ++v) {
    ItemPoint(static_cast<uint32_t>(v), vec::Span(p));
    out[v] = -vec::SqDist(u, vec::ConstSpan(p));
  }
}

}  // namespace taxorec
