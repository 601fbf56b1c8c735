#include "baselines/hgcf.h"

#include "common/health.h"
#include "data/sampler.h"
#include "nn/losses.h"

namespace taxorec {

void Hgcf::BeginFit(const DataSplit& split, Rng* rng) {
  users0_ = Matrix(split.num_users, channel_.cols(config().dim));
  items0_ = Matrix(split.num_items, channel_.cols(config().dim));
  channel_.InitLeaves(rng, &users0_);
  channel_.InitLeaves(rng, &items0_);
  gcn_ = std::make_unique<nn::BipartiteGcn>(split.train, config().gcn_layers);
  sampler_ =
      std::make_unique<TripletSampler>(&split.train, config().neg_sampling);
}

double Hgcf::FitEpoch(const DataSplit& split, int epoch, Rng* rng) {
  for (size_t b = 0; b < config().batches_per_epoch; ++b) {
    // Drawn first, so the forward pass computes only the rows it reads.
    sampler_->SampleBatch(rng, config().batch_size, &batch_);
    rows_.Assign(batch_);
    channel_.Forward(*gcn_, users0_, items0_, &rows_);
    // Summed (not averaged) batch gradients: keeps the effective per-sample
    // step size identical to the per-triplet SGD models.
    channel_.ZeroGrads();
    const ScoringSnapshot rows = scoring_rows();
    for (const Triplet& t : batch_) {
      double dpos, dneg;
      if (nn::HingeTriplet(config().margin, rows.PairDistance(t.user, t.pos),
                           rows.PairDistance(t.user, t.neg), &dpos,
                           &dneg) <= 0.0) {
        continue;
      }
      const auto gu = channel_.grad_u().row(t.user);
      channel_.AddSqDistanceGrad(t.user, t.pos, dpos, gu,
                                 channel_.grad_v().row(t.pos));
      channel_.AddSqDistanceGrad(t.user, t.neg, dneg, gu,
                                 channel_.grad_v().row(t.neg));
    }
    // exp backward → GCN adjoint → log backward → RSGD on the leaves.
    channel_.Backward(*gcn_, users0_, items0_);
    channel_.Step(&users0_, channel_.grad_u(), config().lr,
                  config().grad_clip);
    channel_.Step(&items0_, channel_.grad_v(), config().lr,
                  config().grad_clip);
  }
  return 0.0;
}

void Hgcf::EndFit(const DataSplit& split) {
  channel_.Forward(*gcn_, users0_, items0_);
  channel_.ReleaseStepBuffers();
}

void Hgcf::CheckHealth(HealthMonitor* monitor) const {
  monitor->CheckLorentzRows("users", users0_);
  monitor->CheckLorentzRows("items", items0_);
}

}  // namespace taxorec
