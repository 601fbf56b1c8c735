#include "baselines/neumf.h"

#include "data/sampler.h"
#include "math/vec_ops.h"
#include "nn/losses.h"

namespace taxorec {

void NeuMf::BeginFit(const DataSplit& split, Rng* rng) {
  gmf_dim_ = config().dim / 2;
  mlp_dim_ = config().dim - gmf_dim_;
  gmf_users_ = Matrix(split.num_users, gmf_dim_);
  gmf_items_ = Matrix(split.num_items, gmf_dim_);
  mlp_users_ = Matrix(split.num_users, mlp_dim_);
  mlp_items_ = Matrix(split.num_items, mlp_dim_);
  gmf_users_.FillGaussian(rng, 0.1);
  gmf_items_.FillGaussian(rng, 0.1);
  mlp_users_.FillGaussian(rng, 0.1);
  mlp_items_.FillGaussian(rng, 0.1);
  h_.assign(gmf_dim_, 1.0 / static_cast<double>(gmf_dim_));
  tower_ = std::make_unique<nn::Mlp>(
      std::vector<size_t>{2 * mlp_dim_, mlp_dim_, mlp_dim_ / 2 + 1, 1}, rng);
  sampler_ =
      std::make_unique<TripletSampler>(&split.train, config().neg_sampling);
}

double NeuMf::FitEpoch(const DataSplit& split, int epoch, Rng* rng) {
  std::vector<double> concat(2 * mlp_dim_);
  const double lr = config().lr;

  // Backward for one (user, item) pair with upstream dLoss/dScore = c.
  auto backprop_pair = [&](uint32_t user, uint32_t item, double c) {
    auto ug = gmf_users_.row(user);
    auto vg = gmf_items_.row(item);
    // GMF branch: score_g = <h, ug ⊙ vg>.
    for (size_t i = 0; i < gmf_dim_; ++i) {
      const double gh = c * ug[i] * vg[i];
      const double gu = c * h_[i] * vg[i];
      const double gv = c * h_[i] * ug[i];
      h_[i] -= lr * gh;
      ug[i] -= lr * gu;
      vg[i] -= lr * gv;
    }
    // MLP branch (forward to cache activations, then backward).
    auto um = mlp_users_.row(user);
    auto vm = mlp_items_.row(item);
    vec::Copy(um, vec::Span(concat).subspan(0, mlp_dim_));
    vec::Copy(vm, vec::Span(concat).subspan(mlp_dim_, mlp_dim_));
    tower_->Forward(vec::ConstSpan(concat));
    const std::vector<double> upstream = {c};
    const std::vector<double> grad_in = tower_->Backward(upstream);
    tower_->Step(lr);
    for (size_t i = 0; i < mlp_dim_; ++i) {
      um[i] -= lr * grad_in[i];
      vm[i] -= lr * grad_in[mlp_dim_ + i];
    }
  };

  ScoreScratch scratch;
  const size_t steps = config().batches_per_epoch * config().batch_size;
  for (size_t s = 0; s < steps; ++s) {
    const Triplet t = sampler_->Sample(rng);
    const double diff =
        Score(t.user, t.pos, &scratch) - Score(t.user, t.neg, &scratch);
    double ddiff;
    nn::Bpr(diff, &ddiff);
    backprop_pair(t.user, t.pos, ddiff);
    backprop_pair(t.user, t.neg, -ddiff);
  }
  return 0.0;
}

double NeuMf::Score(uint32_t user, uint32_t item,
                    ScoreScratch* scratch) const {
  const auto ug = gmf_users_.row(user);
  const auto vg = gmf_items_.row(item);
  double score = 0.0;
  for (size_t i = 0; i < gmf_dim_; ++i) score += h_[i] * ug[i] * vg[i];
  std::vector<double>& concat = scratch->concat;
  concat.resize(2 * mlp_dim_);
  vec::Copy(mlp_users_.row(user), vec::Span(concat).subspan(0, mlp_dim_));
  vec::Copy(mlp_items_.row(item),
            vec::Span(concat).subspan(mlp_dim_, mlp_dim_));
  score += tower_->Predict(vec::ConstSpan(concat), &scratch->tower)[0];
  return score;
}

void NeuMf::ScoreItems(uint32_t user, std::span<double> out) const {
  ScoreScratch scratch;
  for (size_t v = 0; v < gmf_items_.rows(); ++v) {
    out[v] = Score(user, static_cast<uint32_t>(v), &scratch);
  }
}

}  // namespace taxorec
