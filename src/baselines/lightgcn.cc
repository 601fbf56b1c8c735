#include "baselines/lightgcn.h"

#include "baselines/embedding_model.h"
#include "optim/sgd.h"

namespace taxorec {

void LightGcn::Propagate() {
  gcn_->Forward(users0_, items0_, &step_.ctx, &users_out_, &items_out_);
}

void LightGcn::BeginFit(const DataSplit& split, Rng* rng) {
  const size_t d = config().dim;
  users0_ = Matrix(split.num_users, d);
  items0_ = Matrix(split.num_items, d);
  users0_.FillGaussian(rng, 0.1);
  items0_.FillGaussian(rng, 0.1);
  gcn_ = std::make_unique<nn::LightGcnPropagation>(split.train,
                                                    config().gcn_layers);
  step_.sampler =
      std::make_unique<TripletSampler>(&split.train, config().neg_sampling);
  step_.grad_u.EnsureShape(split.num_users, d);
  step_.grad_v.EnsureShape(split.num_items, d);
}

double LightGcn::FitEpoch(const DataSplit& split, int epoch, Rng* rng) {
  for (size_t b = 0; b < config().batches_per_epoch; ++b) {
    Propagate();
    step_.sampler->SampleBatch(rng, config().batch_size, &step_.batch);
    step_.grad_u.SetZero();
    step_.grad_v.SetZero();
    for (const Triplet& t : step_.batch) {
      AddBprGrad(users_out_.row(t.user), items_out_.row(t.pos),
                 items_out_.row(t.neg), step_.grad_u.row(t.user),
                 step_.grad_v.row(t.pos), step_.grad_v.row(t.neg));
    }
    gcn_->Backward(step_.grad_u, step_.grad_v, &step_.leaf_gu,
                   &step_.leaf_gv, &step_.ctx);
    optim::SgdUpdate(&users0_, step_.leaf_gu, config().lr);
    optim::SgdUpdate(&items0_, step_.leaf_gv, config().lr);
  }
  return 0.0;
}

void LightGcn::EndFit(const DataSplit& split) {
  Propagate();
  step_ = StepBuffers();  // scoring and serving need the outputs alone
}

}  // namespace taxorec
