#include "baselines/hgcf.h"

#include "data/sampler.h"
#include "nn/losses.h"

namespace taxorec {

void Hgcf::Fit(const DataSplit& split, Rng* rng) {
  users0_ = Matrix(split.num_users, channel_.cols(config_.dim));
  items0_ = Matrix(split.num_items, channel_.cols(config_.dim));
  channel_.InitLeaves(rng, &users0_);
  channel_.InitLeaves(rng, &items0_);
  gcn_ = std::make_unique<nn::BipartiteGcn>(split.train, config_.gcn_layers);

  TripletSampler sampler(&split.train, config_.neg_sampling);
  std::vector<Triplet> batch;

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    for (size_t b = 0; b < config_.batches_per_epoch; ++b) {
      channel_.Forward(*gcn_, users0_, items0_);
      sampler.SampleBatch(rng, config_.batch_size, &batch);
      channel_.ZeroGrads();
      // Summed (not averaged) batch gradients: keeps the effective per-sample
      // step size identical to the per-triplet SGD models.
      const double scale = 1.0;
      for (const Triplet& t : batch) {
        double dpos, dneg;
        if (nn::HingeTriplet(config_.margin,
                             channel_.SqDistance(t.user, t.pos),
                             channel_.SqDistance(t.user, t.neg), &dpos,
                             &dneg) <= 0.0) {
          continue;
        }
        const auto gu = channel_.grad_u().row(t.user);
        channel_.AddSqDistanceGrad(t.user, t.pos, dpos * scale, gu,
                                   channel_.grad_v().row(t.pos));
        channel_.AddSqDistanceGrad(t.user, t.neg, dneg * scale, gu,
                                   channel_.grad_v().row(t.neg));
      }
      // exp backward → GCN adjoint → log backward → RSGD on the leaves.
      channel_.Backward(*gcn_, users0_, items0_);
      channel_.Step(&users0_, channel_.grad_u(), config_.lr,
                    config_.grad_clip);
      channel_.Step(&items0_, channel_.grad_v(), config_.lr,
                    config_.grad_clip);
    }
  }
  channel_.Forward(*gcn_, users0_, items0_);
  channel_.ReleaseStepBuffers();
}

void Hgcf::ScoreItems(uint32_t user, std::span<double> out) const {
  for (size_t v = 0; v < channel_.out_v().rows(); ++v) {
    out[v] = -channel_.SqDistance(user, static_cast<uint32_t>(v));
  }
}

}  // namespace taxorec
