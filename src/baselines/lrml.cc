#include "baselines/lrml.h"

#include <cmath>

#include "data/sampler.h"
#include "math/vec_ops.h"
#include "nn/losses.h"

namespace taxorec {
namespace {

void Softmax(std::span<double> logits) {
  double mx = logits[0];
  for (double v : logits) mx = std::max(mx, v);
  double total = 0.0;
  for (double& v : logits) {
    v = std::exp(v - mx);
    total += v;
  }
  for (double& v : logits) v /= total;
}

}  // namespace

double Lrml::PairSqDist(std::span<const double> u, std::span<const double> v,
                        std::span<double> attn, std::span<double> rel) const {
  const size_t d = u.size();
  // s = u ⊙ v; attention logits a_i = <K_i, s>.
  std::vector<double> s(d);
  vec::Hadamard(u, v, vec::Span(s));
  for (size_t i = 0; i < kMemorySlices; ++i) {
    attn[i] = vec::Dot(keys_.row(i), vec::ConstSpan(s));
  }
  Softmax(attn);
  vec::Zero(rel);
  for (size_t i = 0; i < kMemorySlices; ++i) {
    vec::Axpy(attn[i], memory_.row(i), rel);
  }
  double acc = 0.0;
  for (size_t i = 0; i < d; ++i) {
    const double e = u[i] + rel[i] - v[i];
    acc += e * e;
  }
  return acc;
}

void Lrml::BeginFit(const DataSplit& split, Rng* rng) {
  const size_t d = config().dim;
  users_ = Matrix(split.num_users, d);
  items_ = Matrix(split.num_items, d);
  keys_ = Matrix(kMemorySlices, d);
  memory_ = Matrix(kMemorySlices, d);
  users_.FillGaussian(rng, 0.1);
  items_.FillGaussian(rng, 0.1);
  keys_.FillGaussian(rng, 0.1);
  memory_.FillGaussian(rng, 0.1);
  sampler_ =
      std::make_unique<TripletSampler>(&split.train, config().neg_sampling);
}

double Lrml::FitEpoch(const DataSplit& split, int epoch, Rng* rng) {
  const size_t d = config().dim;
  std::vector<double> attn(kMemorySlices), rel(d);
  std::vector<double> gu(d), gv(d), gs(d), ge(d), ga(kMemorySlices);

  // Backward for one pair with upstream scale on the squared distance.
  auto backprop_pair = [&](uint32_t user, uint32_t item, double scale) {
    auto u = users_.row(user);
    auto v = items_.row(item);
    PairSqDist(u, v, vec::Span(attn), vec::Span(rel));
    // e = u + r - v; dL/de = 2*scale*e.
    for (size_t i = 0; i < d; ++i) {
      ge[i] = 2.0 * scale * (u[i] + rel[i] - v[i]);
    }
    // Through r = sum_i attn_i M_i: g_attn_i = <M_i, ge>; g_M_i += attn_i ge.
    double avg = 0.0;
    for (size_t i = 0; i < kMemorySlices; ++i) {
      ga[i] = vec::Dot(memory_.row(i), vec::ConstSpan(ge));
    }
    for (size_t i = 0; i < kMemorySlices; ++i) avg += attn[i] * ga[i];
    // Softmax backward → logits; logits a_i = <K_i, s>, s = u ⊙ v.
    vec::Zero(vec::Span(gs));
    for (size_t i = 0; i < kMemorySlices; ++i) {
      const double glogit = attn[i] * (ga[i] - avg);
      vec::Axpy(glogit, keys_.row(i), vec::Span(gs));
      // Parameter updates (immediate SGD).
      std::vector<double> s(d);
      vec::Hadamard(u, v, vec::Span(s));
      vec::Axpy(-config().lr * glogit, vec::ConstSpan(s), keys_.row(i));
      vec::Axpy(-config().lr * attn[i], vec::ConstSpan(ge), memory_.row(i));
    }
    // Into u and v: direct term ± ge, plus Hadamard chain through s.
    vec::Zero(vec::Span(gu));
    vec::Zero(vec::Span(gv));
    for (size_t i = 0; i < d; ++i) {
      gu[i] = ge[i] + gs[i] * v[i];
      gv[i] = -ge[i] + gs[i] * u[i];
    }
    vec::Axpy(-config().lr, vec::ConstSpan(gu), u);
    vec::Axpy(-config().lr, vec::ConstSpan(gv), v);
    vec::ClipNorm(u, 1.0);
    vec::ClipNorm(v, 1.0);
  };

  const size_t steps = config().batches_per_epoch * config().batch_size;
  for (size_t s = 0; s < steps; ++s) {
    const Triplet t = sampler_->Sample(rng);
    const double dp = PairSqDist(users_.row(t.user), items_.row(t.pos),
                                 vec::Span(attn), vec::Span(rel));
    const double dq = PairSqDist(users_.row(t.user), items_.row(t.neg),
                                 vec::Span(attn), vec::Span(rel));
    double dpos, dneg;
    if (nn::HingeTriplet(config().margin, dp, dq, &dpos, &dneg) <= 0.0) {
      continue;
    }
    backprop_pair(t.user, t.pos, dpos);
    backprop_pair(t.user, t.neg, dneg);
  }
  return 0.0;
}

void Lrml::ScoreItems(uint32_t user, std::span<double> out) const {
  std::vector<double> attn(kMemorySlices), rel(users_.cols());
  const auto u = users_.row(user);
  for (size_t v = 0; v < items_.rows(); ++v) {
    out[v] = -PairSqDist(u, items_.row(v), vec::Span(attn), vec::Span(rel));
  }
}

}  // namespace taxorec
