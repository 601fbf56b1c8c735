#include "baselines/ngcf.h"

#include <cmath>
#include <utility>

#include "baselines/embedding_model.h"
#include "optim/sgd.h"

namespace taxorec {
namespace {

constexpr double kLeakySlope = 0.2;

void LeakyRelu(Matrix* m) {
  for (double& x : m->flat()) {
    if (x < 0.0) x *= kLeakySlope;
  }
}

// grad ⊙= lrelu'(pre).
void LeakyReluBackward(const Matrix& pre, Matrix* grad) {
  auto g = grad->flat();
  const auto p = pre.flat();
  for (size_t i = 0; i < g.size(); ++i) {
    if (p[i] < 0.0) g[i] *= kLeakySlope;
  }
}

}  // namespace

void Ngcf::Forward() {
  StepBuffers& c = step_;
  c.zu[0] = users0_;
  c.zv[0] = items0_;
  users_out_ = users0_;
  items_out_ = items0_;
  for (int l = 0; l < config().gcn_layers; ++l) {
    c.su[l] = c.zu[l];
    pui_.MultiplyAccum(c.zv[l], 1.0, &c.su[l]);
    c.sv[l] = c.zv[l];
    piu_.MultiplyAccum(c.zu[l], 1.0, &c.sv[l]);
    MatMul(c.su[l], weights_[l], &c.pre_u[l]);
    MatMul(c.sv[l], weights_[l], &c.pre_v[l]);
    c.zu[l + 1] = c.pre_u[l];
    c.zv[l + 1] = c.pre_v[l];
    LeakyRelu(&c.zu[l + 1]);
    LeakyRelu(&c.zv[l + 1]);
    users_out_.Axpy(1.0, c.zu[l + 1]);
    items_out_.Axpy(1.0, c.zv[l + 1]);
  }
}

void Ngcf::BeginFit(const DataSplit& split, Rng* rng) {
  const size_t d = config().dim;
  const int L = config().gcn_layers;
  users0_ = Matrix(split.num_users, d);
  items0_ = Matrix(split.num_items, d);
  users0_.FillGaussian(rng, 0.1);
  items0_.FillGaussian(rng, 0.1);
  weights_.clear();
  for (int l = 0; l < L; ++l) {
    Matrix w(d, d);
    w.FillGaussian(rng, 1.0 / std::sqrt(static_cast<double>(d)));
    // Bias toward identity so early epochs resemble plain propagation.
    for (size_t i = 0; i < d; ++i) w.at(i, i) += 1.0;
    weights_.push_back(std::move(w));
  }
  pui_ = split.train.RowNormalized();
  piu_ = split.train.Transposed().RowNormalized();
  pui_t_ = pui_.Transposed();
  piu_t_ = piu_.Transposed();
  step_.sampler =
      std::make_unique<TripletSampler>(&split.train, config().neg_sampling);
  for (auto* layers : {&step_.zu, &step_.zv}) layers->resize(L + 1);
  for (auto* layers : {&step_.su, &step_.sv, &step_.pre_u, &step_.pre_v,
                       &step_.grad_w}) {
    layers->resize(L);
  }
  step_.up_u.EnsureShape(split.num_users, d);
  step_.up_v.EnsureShape(split.num_items, d);
}

double Ngcf::FitEpoch(const DataSplit& split, int epoch, Rng* rng) {
  const int L = config().gcn_layers;
  StepBuffers& s = step_;
  for (size_t b = 0; b < config().batches_per_epoch; ++b) {
    Forward();
    s.sampler->SampleBatch(rng, config().batch_size, &s.batch);
    s.up_u.SetZero();
    s.up_v.SetZero();
    for (const Triplet& t : s.batch) {
      AddBprGrad(users_out_.row(t.user), items_out_.row(t.pos),
                 items_out_.row(t.neg), s.up_u.row(t.user),
                 s.up_v.row(t.pos), s.up_v.row(t.neg));
    }
    // Adjoint through the layer stack (out = sum of z^0..z^L).
    s.au = s.up_u;  // grad wrt z^{l+1} as we walk down
    s.av = s.up_v;
    for (int l = L - 1; l >= 0; --l) {
      LeakyReluBackward(s.pre_u[l], &s.au);
      LeakyReluBackward(s.pre_v[l], &s.av);
      // gW = S^T gpre summed over both sides (they share the weight).
      MatMulTransposedA(s.su[l], s.au, &s.grad_w[l]);
      MatMulTransposedA(s.sv[l], s.av, &s.gw_v);
      s.grad_w[l].Axpy(1.0, s.gw_v);
      // gS = gpre W^T.
      MatMulTransposedB(s.au, weights_[l], &s.gsu);
      MatMulTransposedB(s.av, weights_[l], &s.gsv);
      // a^l = up (z^l term of the sum) + gS + P^T gS (cross side).
      s.next_au = s.up_u;
      s.next_au.Axpy(1.0, s.gsu);
      piu_t_.MultiplyAccum(s.gsv, 1.0, &s.next_au);
      s.next_av = s.up_v;
      s.next_av.Axpy(1.0, s.gsv);
      pui_t_.MultiplyAccum(s.gsu, 1.0, &s.next_av);
      std::swap(s.au, s.next_au);
      std::swap(s.av, s.next_av);
    }
    // Summed batch gradients can be large through the per-layer weight
    // matrices; clip per-row before the step to keep training stable.
    optim::ClipRowNorms(&s.au, config().grad_clip);
    optim::ClipRowNorms(&s.av, config().grad_clip);
    optim::SgdUpdate(&users0_, s.au, config().lr);
    optim::SgdUpdate(&items0_, s.av, config().lr);
    for (int l = 0; l < L; ++l) {
      optim::ClipRowNorms(&s.grad_w[l], config().grad_clip);
      optim::SgdUpdate(&weights_[l], s.grad_w[l], 0.1 * config().lr);
    }
  }
  return 0.0;
}

void Ngcf::EndFit(const DataSplit& split) {
  Forward();
  step_ = StepBuffers();  // scoring needs the outputs alone
}

}  // namespace taxorec
