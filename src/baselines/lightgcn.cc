#include "baselines/lightgcn.h"

#include "data/sampler.h"
#include "math/vec_ops.h"
#include "nn/losses.h"
#include "optim/sgd.h"

namespace taxorec {

void LightGcn::Propagate(nn::GcnContext* ctx) {
  gcn_->Forward(users0_, items0_, ctx, &users_out_, &items_out_);
}

void LightGcn::Fit(const DataSplit& split, Rng* rng) {
  const size_t d = config_.dim;
  users0_ = Matrix(split.num_users, d);
  items0_ = Matrix(split.num_items, d);
  users0_.FillGaussian(rng, 0.1);
  items0_.FillGaussian(rng, 0.1);
  gcn_ = std::make_unique<nn::LightGcnPropagation>(split.train,
                                                    config_.gcn_layers);

  TripletSampler sampler(&split.train, config_.neg_sampling);
  std::vector<Triplet> batch;
  nn::GcnContext ctx;

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    for (size_t b = 0; b < config_.batches_per_epoch; ++b) {
      Propagate(&ctx);
      sampler.SampleBatch(rng, config_.batch_size, &batch);
      Matrix grad_u(split.num_users, d);
      Matrix grad_v(split.num_items, d);
      // Summed (not averaged) batch gradients: keeps the effective per-sample
      // step size identical to the per-triplet SGD models.
      const double scale = 1.0;
      for (const Triplet& t : batch) {
        const auto u = users_out_.row(t.user);
        const auto vp = items_out_.row(t.pos);
        const auto vq = items_out_.row(t.neg);
        const double diff = vec::Dot(u, vp) - vec::Dot(u, vq);
        double ddiff;
        nn::Bpr(diff, &ddiff);
        const double c = ddiff * scale;
        auto gu = grad_u.row(t.user);
        auto gp = grad_v.row(t.pos);
        auto gq = grad_v.row(t.neg);
        for (size_t i = 0; i < d; ++i) {
          gu[i] += c * (vp[i] - vq[i]);
          gp[i] += c * u[i];
          gq[i] -= c * u[i];
        }
      }
      Matrix leaf_gu, leaf_gv;
      gcn_->Backward(grad_u, grad_v, &leaf_gu, &leaf_gv, &ctx);
      optim::SgdUpdate(&users0_, leaf_gu, config_.lr);
      optim::SgdUpdate(&items0_, leaf_gv, config_.lr);
    }
  }
  Propagate(&ctx);
}

void LightGcn::ScoreItems(uint32_t user, std::span<double> out) const {
  const auto u = users_out_.row(user);
  for (size_t v = 0; v < items_out_.rows(); ++v) {
    out[v] = vec::Dot(u, items_out_.row(v));
  }
}

ScoringSnapshot LightGcn::ExportScoringSnapshot() const {
  ScoringSnapshot snap;
  snap.kernel = ScoreKernel::kDot;
  snap.num_users = users_out_.rows();
  snap.num_items = items_out_.rows();
  snap.users = users_out_;
  snap.items = items_out_;
  return snap;
}

}  // namespace taxorec
