#include "baselines/agcn.h"

#include "baselines/embedding_model.h"
#include "data/sampler.h"
#include "math/vec_ops.h"
#include "nn/losses.h"
#include "optim/sgd.h"

namespace taxorec {
namespace {

constexpr double kAttrLossWeight = 0.2;

}  // namespace

void Agcn::Propagate(nn::GcnContext* ctx) {
  // items0_ + the mean tag embedding, added as mean + items0_: addition
  // commutes exactly, so the bits are those of items0_ + mean.
  RowMeans(*item_tags_, tags_, &items_aug_);
  items_aug_.Axpy(1.0, items0_);
  gcn_->Forward(users0_, items_aug_, ctx, &users_out_, &items_out_);
}

void Agcn::Fit(const DataSplit& split, Rng* rng) {
  const size_t d = config_.dim;
  item_tags_ = &split.item_tags;
  users0_ = Matrix(split.num_users, d);
  items0_ = Matrix(split.num_items, d);
  tags_ = Matrix(split.num_tags, d);
  users0_.FillGaussian(rng, 0.1);
  items0_.FillGaussian(rng, 0.1);
  tags_.FillGaussian(rng, 0.05);
  gcn_ = std::make_unique<nn::LightGcnPropagation>(split.train,
                                                    config_.gcn_layers);

  TripletSampler sampler(&split.train, config_.neg_sampling);
  std::vector<Triplet> batch;
  nn::GcnContext ctx;

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    for (size_t b = 0; b < config_.batches_per_epoch; ++b) {
      Propagate(&ctx);
      sampler.SampleBatch(rng, config_.batch_size, &batch);
      Matrix up_u(split.num_users, d);
      Matrix up_v(split.num_items, d);
      Matrix grad_tags(split.num_tags, d);
      // Summed (not averaged) batch gradients: keeps the effective per-sample
      // step size identical to the per-triplet SGD models.
      const double scale = 1.0;

      for (const Triplet& t : batch) {
        // Ranking term (BPR on propagated inner products).
        const auto u = users_out_.row(t.user);
        const auto vp = items_out_.row(t.pos);
        const auto vq = items_out_.row(t.neg);
        double ddiff;
        nn::Bpr(vec::Dot(u, vp) - vec::Dot(u, vq), &ddiff);
        const double c = ddiff * scale;
        auto gu = up_u.row(t.user);
        auto gp = up_v.row(t.pos);
        auto gq = up_v.row(t.neg);
        for (size_t i = 0; i < d; ++i) {
          gu[i] += c * (vp[i] - vq[i]);
          gp[i] += c * u[i];
          gq[i] -= c * u[i];
        }
        // Attribute-inference term on the positive item: raise the logit of
        // each true tag, lower one sampled negative tag per positive.
        const auto true_tags = item_tags_->RowCols(t.pos);
        for (uint32_t tag : true_tags) {
          const double logit = vec::Dot(vp, tags_.row(tag));
          const double gpos =
              kAttrLossWeight * scale * (nn::Sigmoid(logit) - 1.0);
          vec::Axpy(gpos, tags_.row(tag), gp);
          vec::Axpy(gpos, vp, grad_tags.row(tag));
          const uint32_t neg_tag =
              static_cast<uint32_t>(rng->Uniform(split.num_tags));
          if (item_tags_->Contains(t.pos, neg_tag)) continue;
          const double nlogit = vec::Dot(vp, tags_.row(neg_tag));
          const double gneg = kAttrLossWeight * scale * nn::Sigmoid(nlogit);
          vec::Axpy(gneg, tags_.row(neg_tag), gp);
          vec::Axpy(gneg, vp, grad_tags.row(neg_tag));
        }
      }

      Matrix leaf_gu, leaf_gv;
      gcn_->Backward(up_u, up_v, &leaf_gu, &leaf_gv, &ctx);
      // Item leaf gradient feeds both items0_ and (via the mean) the tags.
      RowMeansBackward(*item_tags_, leaf_gv, &grad_tags);
      optim::SgdUpdate(&users0_, leaf_gu, config_.lr);
      optim::SgdUpdate(&items0_, leaf_gv, config_.lr);
      optim::SgdUpdate(&tags_, grad_tags, config_.lr);
    }
  }
  Propagate(&ctx);
}

void Agcn::ScoreItems(uint32_t user, std::span<double> out) const {
  const auto u = users_out_.row(user);
  for (size_t v = 0; v < items_out_.rows(); ++v) {
    out[v] = vec::Dot(u, items_out_.row(v));
  }
}

}  // namespace taxorec
