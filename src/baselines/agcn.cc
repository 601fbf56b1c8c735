#include "baselines/agcn.h"

#include "baselines/embedding_model.h"
#include "math/vec_ops.h"
#include "nn/losses.h"
#include "optim/sgd.h"

namespace taxorec {
namespace {

constexpr double kAttrLossWeight = 0.2;

}  // namespace

void Agcn::Propagate() {
  // items0_ + the mean tag embedding, added as mean + items0_: addition
  // commutes exactly, so the bits are those of items0_ + mean.
  RowMeans(*item_tags_, tags_, &items_aug_);
  items_aug_.Axpy(1.0, items0_);
  gcn_->Forward(users0_, items_aug_, &step_.ctx, &users_out_, &items_out_);
}

void Agcn::BeginFit(const DataSplit& split, Rng* rng) {
  const size_t d = config().dim;
  item_tags_ = &split.item_tags;
  users0_ = Matrix(split.num_users, d);
  items0_ = Matrix(split.num_items, d);
  tags_ = Matrix(split.num_tags, d);
  users0_.FillGaussian(rng, 0.1);
  items0_.FillGaussian(rng, 0.1);
  tags_.FillGaussian(rng, 0.05);
  gcn_ = std::make_unique<nn::LightGcnPropagation>(split.train,
                                                    config().gcn_layers);
  step_.sampler =
      std::make_unique<TripletSampler>(&split.train, config().neg_sampling);
  step_.up_u.EnsureShape(split.num_users, d);
  step_.up_v.EnsureShape(split.num_items, d);
  step_.grad_tags.EnsureShape(split.num_tags, d);
}

double Agcn::FitEpoch(const DataSplit& split, int epoch, Rng* rng) {
  for (size_t b = 0; b < config().batches_per_epoch; ++b) {
    Propagate();
    step_.sampler->SampleBatch(rng, config().batch_size, &step_.batch);
    step_.up_u.SetZero();
    step_.up_v.SetZero();
    step_.grad_tags.SetZero();
    for (const Triplet& t : step_.batch) {
      // Ranking term (BPR on propagated inner products).
      const auto vp = items_out_.row(t.pos);
      const auto gp = step_.up_v.row(t.pos);
      AddBprGrad(users_out_.row(t.user), vp, items_out_.row(t.neg),
                 step_.up_u.row(t.user), gp, step_.up_v.row(t.neg));
      // Attribute-inference term on the positive item: raise the logit of
      // each true tag, lower one sampled negative tag per positive.
      for (uint32_t tag : item_tags_->RowCols(t.pos)) {
        const double logit = vec::Dot(vp, tags_.row(tag));
        const double gpos = kAttrLossWeight * (nn::Sigmoid(logit) - 1.0);
        vec::Axpy(gpos, tags_.row(tag), gp);
        vec::Axpy(gpos, vp, step_.grad_tags.row(tag));
        const uint32_t neg_tag =
            static_cast<uint32_t>(rng->Uniform(split.num_tags));
        if (item_tags_->Contains(t.pos, neg_tag)) continue;
        const double nlogit = vec::Dot(vp, tags_.row(neg_tag));
        const double gneg = kAttrLossWeight * nn::Sigmoid(nlogit);
        vec::Axpy(gneg, tags_.row(neg_tag), gp);
        vec::Axpy(gneg, vp, step_.grad_tags.row(neg_tag));
      }
    }
    gcn_->Backward(step_.up_u, step_.up_v, &step_.leaf_gu, &step_.leaf_gv,
                   &step_.ctx);
    // Item leaf gradient feeds both items0_ and (via the mean) the tags.
    RowMeansBackward(*item_tags_, step_.leaf_gv, &step_.grad_tags);
    optim::SgdUpdate(&users0_, step_.leaf_gu, config().lr);
    optim::SgdUpdate(&items0_, step_.leaf_gv, config().lr);
    optim::SgdUpdate(&tags_, step_.grad_tags, config().lr);
  }
  return 0.0;
}

void Agcn::EndFit(const DataSplit& split) {
  Propagate();
  step_ = StepBuffers();  // scoring needs the outputs alone
}

}  // namespace taxorec
