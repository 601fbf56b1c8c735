#include "baselines/hgcf.h"

#include "data/sampler.h"
#include "hyperbolic/lorentz.h"
#include "math/vec_ops.h"
#include "nn/losses.h"
#include "nn/lorentz_layers.h"
#include "optim/rsgd.h"

namespace taxorec {

void Hgcf::Propagate(nn::GcnContext* ctx) {
  nn::LogMapOriginForward(users0_, &zu0_);
  nn::LogMapOriginForward(items0_, &zv0_);
  gcn_->Forward(zu0_, zv0_, ctx, &sum_u_, &sum_v_);
  nn::ExpMapOriginForward(sum_u_, &users_out_);
  nn::ExpMapOriginForward(sum_v_, &items_out_);
}

void Hgcf::Fit(const DataSplit& split, Rng* rng) {
  const size_t d1 = config_.dim + 1;
  users0_ = Matrix(split.num_users, d1);
  items0_ = Matrix(split.num_items, d1);
  for (size_t u = 0; u < users0_.rows(); ++u) {
    lorentz::RandomPoint(rng, 0.1, users0_.row(u));
  }
  for (size_t v = 0; v < items0_.rows(); ++v) {
    lorentz::RandomPoint(rng, 0.1, items0_.row(v));
  }
  gcn_ = std::make_unique<nn::BipartiteGcn>(split.train, config_.gcn_layers);

  TripletSampler sampler(&split.train, config_.neg_sampling);
  std::vector<Triplet> batch;
  nn::GcnContext ctx;

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    for (size_t b = 0; b < config_.batches_per_epoch; ++b) {
      Propagate(&ctx);
      sampler.SampleBatch(rng, config_.batch_size, &batch);
      Matrix up_u(split.num_users, d1);
      Matrix up_v(split.num_items, d1);
      // Summed (not averaged) batch gradients: keeps the effective per-sample
      // step size identical to the per-triplet SGD models.
      const double scale = 1.0;
      for (const Triplet& t : batch) {
        const auto u = users_out_.row(t.user);
        const auto vp = items_out_.row(t.pos);
        const auto vq = items_out_.row(t.neg);
        double dpos, dneg;
        if (nn::HingeTriplet(config_.margin, lorentz::SqDistance(u, vp),
                             lorentz::SqDistance(u, vq), &dpos,
                             &dneg) <= 0.0) {
          continue;
        }
        lorentz::SqDistanceGrad(u, vp, dpos * scale, up_u.row(t.user),
                                up_v.row(t.pos));
        lorentz::SqDistanceGrad(u, vq, dneg * scale, up_u.row(t.user),
                                up_v.row(t.neg));
      }
      // exp backward → GCN adjoint → log backward → RSGD on the leaves.
      Matrix gsum_u(split.num_users, d1);
      Matrix gsum_v(split.num_items, d1);
      nn::ExpMapOriginBackward(sum_u_, up_u, &gsum_u);
      nn::ExpMapOriginBackward(sum_v_, up_v, &gsum_v);
      Matrix gz_u, gz_v;
      gcn_->Backward(gsum_u, gsum_v, &gz_u, &gz_v, &ctx);
      Matrix leaf_gu(split.num_users, d1);
      Matrix leaf_gv(split.num_items, d1);
      nn::LogMapOriginBackward(users0_, gz_u, &leaf_gu);
      nn::LogMapOriginBackward(items0_, gz_v, &leaf_gv);
      optim::LorentzRsgdUpdate(&users0_, leaf_gu, config_.lr,
                               config_.grad_clip);
      optim::LorentzRsgdUpdate(&items0_, leaf_gv, config_.lr,
                               config_.grad_clip);
    }
  }
  Propagate(&ctx);
}

void Hgcf::ScoreItems(uint32_t user, std::span<double> out) const {
  const auto u = users_out_.row(user);
  for (size_t v = 0; v < items_out_.rows(); ++v) {
    out[v] = -lorentz::SqDistance(u, items_out_.row(v));
  }
}

}  // namespace taxorec
