#include "nn/gcn.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/embedding_model.h"
#include "common/check.h"
#include "common/trace.h"
#include "hyperbolic/lorentz.h"
#include "math/vec_ops.h"
#include "nn/lorentz_layers.h"
#include "optim/rsgd.h"
#include "optim/sgd.h"

namespace taxorec::nn {

BipartiteGcn::BipartiteGcn(const CsrMatrix& interactions, int num_layers)
    : num_layers_(num_layers),
      pui_(interactions.RowNormalized()),
      piu_(interactions.Transposed().RowNormalized()),
      pui_t_(pui_.Transposed()),
      piu_t_(piu_.Transposed()) {
  TAXOREC_CHECK(num_layers >= 1);
}

namespace {

// Radius of the ball Euclidean channel leaves are projected into.
constexpr double kEuclidMaxNorm = 1.5;

void SortUnique(std::vector<uint32_t>* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

// The list of one side of `rows`, or null (every row) without it.
const std::vector<uint32_t>* UserRows(const BatchRows* rows) {
  return rows == nullptr ? nullptr : &rows->users;
}
const std::vector<uint32_t>* ItemRows(const BatchRows* rows) {
  return rows == nullptr ? nullptr : &rows->items;
}

}  // namespace

void BatchRows::Assign(std::span<const Triplet> batch) {
  users.clear();
  items.clear();
  for (const Triplet& t : batch) {
    users.push_back(t.user);
    items.push_back(t.pos);
    items.push_back(t.neg);
  }
  SortUnique(&users);
  SortUnique(&items);
}

void BipartiteGcn::Forward(const Matrix& zu0, const Matrix& zv0,
                           GcnContext* ctx, Matrix* out_u, Matrix* out_v,
                           const BatchRows* last) const {
  TAXOREC_CHECK(zu0.rows() == num_users() && zv0.rows() == num_items());
  TAXOREC_CHECK(zu0.cols() == zv0.cols());
  const size_t d = zu0.cols();
  out_u->EnsureShape(num_users(), d);
  out_v->EnsureShape(num_items(), d);
  // Layer l reads Z^l (the inputs, then ctx buffer (l-1) % 2) and writes
  // Z^{l+1} = (Z^l + P Z^l_other) / 2 into ctx buffer l % 2.
  const Matrix* zu = &zu0;
  const Matrix* zv = &zv0;
  // Only the last layer may be limited to `last`'s rows: every earlier one
  // feeds the next layer's neighbour sums.
  for (int l = 0; l < num_layers_; ++l) {
    Matrix* next_u = &ctx->u[l % 2];
    Matrix* next_v = &ctx->v[l % 2];
    next_u->EnsureShape(num_users(), d);
    next_v->EnsureShape(num_items(), d);
    const CsrMatrix::LayerFinish into_u{.sum = out_u, .first = l == 0};
    const CsrMatrix::LayerFinish into_v{.sum = out_v, .first = l == 0};
    const BatchRows* rows = l == num_layers_ - 1 ? last : nullptr;
    pui_.MultiplyAdd(*zv, 1.0, zu, next_u, &into_u, UserRows(rows));
    piu_.MultiplyAdd(*zu, 1.0, zv, next_v, &into_v, ItemRows(rows));
    zu = next_u;
    zv = next_v;
  }
}

void BipartiteGcn::Backward(const Matrix& up_u, const Matrix& up_v,
                            Matrix* grad_u0, Matrix* grad_v0,
                            GcnContext* ctx) const {
  TAXOREC_CHECK(up_u.rows() == num_users() && up_v.rows() == num_items());
  TAXOREC_CHECK(up_u.cols() == up_v.cols());
  TAXOREC_CHECK(grad_u0 != &up_u && grad_v0 != &up_v);
  GcnContext scratch;
  if (ctx == nullptr) ctx = &scratch;
  const size_t d = up_u.cols();
  // Adjoint recursion: a^L = upstream; for l = L-1 .. 0:
  //   au^l = (au^{l+1} + Piu^T av^{l+1}) / 2 + [l >= 1] * up_u
  //   av^l = (av^{l+1} + Pui^T au^{l+1}) / 2 + [l >= 1] * up_v
  // a^l goes to the outputs for even l and to ctx buffer 0 for odd l, so
  // a^0 lands in the outputs.
  const Matrix* au = &up_u;
  const Matrix* av = &up_v;
  for (int l = num_layers_ - 1; l >= 0; --l) {
    Matrix* next_u = l % 2 == 0 ? grad_u0 : &ctx->u[0];
    Matrix* next_v = l % 2 == 0 ? grad_v0 : &ctx->v[0];
    next_u->EnsureShape(num_users(), d);
    next_v->EnsureShape(num_items(), d);
    const CsrMatrix::LayerFinish plus_u{.add = l >= 1 ? &up_u : nullptr};
    const CsrMatrix::LayerFinish plus_v{.add = l >= 1 ? &up_v : nullptr};
    piu_t_.MultiplyAdd(*av, 1.0, au, next_u, &plus_u);
    pui_t_.MultiplyAdd(*au, 1.0, av, next_v, &plus_v);
    au = next_u;
    av = next_v;
  }
}

void GcnChannel::InitLeaves(Rng* rng, Matrix* leaves) const {
  if (!hyperbolic_) {
    leaves->FillGaussian(rng, 0.1);
    return;
  }
  for (size_t r = 0; r < leaves->rows(); ++r) {
    lorentz::RandomPoint(rng, 0.1, leaves->row(r));
  }
}

void GcnChannel::Forward(const BipartiteGcn& gcn, const Matrix& users,
                         const Matrix& items, const BatchRows* rows) {
  rows_ = rows;
  if (!hyperbolic_) {
    TraceSpan span("gcn_fwd");
    gcn.Forward(users, items, &ctx_, &out_u_, &out_v_, rows);
    return;
  }
  {
    TraceSpan span("logmap");
    LogMapOriginForward(users, &tan_u_);
    LogMapOriginForward(items, &tan_v_);
  }
  {
    TraceSpan span("gcn_fwd");
    gcn.Forward(tan_u_, tan_v_, &ctx_, &sum_u_, &sum_v_, rows);
  }
  TraceSpan span("expmap");
  ExpMapOriginForward(sum_u_, &out_u_, UserRows(rows));
  ExpMapOriginForward(sum_v_, &out_v_, ItemRows(rows));
}

void GcnChannel::AddSqDistanceGrad(uint32_t u, uint32_t v, double s,
                                   std::span<double> grad_u,
                                   std::span<double> grad_v) const {
  if (hyperbolic_) {
    lorentz::SqDistanceGrad(out_u_.row(u), out_v_.row(v), s, grad_u, grad_v);
  } else {
    EuclidSqDistGrad(out_u_.row(u), out_v_.row(v), s, grad_u, grad_v);
  }
}

void GcnChannel::ZeroGrads() {
  grad_u_.EnsureShape(out_u_.rows(), out_u_.cols());
  grad_v_.EnsureShape(out_v_.rows(), out_v_.cols());
  grad_u_.SetZero();
  grad_v_.SetZero();
}

void GcnChannel::Backward(const BipartiteGcn& gcn, const Matrix& users,
                          const Matrix& items) {
  if (!hyperbolic_) {
    // The GCN is the whole channel: its input gradient is the leaves'.
    TraceSpan span("gcn_bwd");
    gcn.Backward(grad_u_, grad_v_, &tan_u_, &tan_v_, &ctx_);
    std::swap(grad_u_, tan_u_);
    std::swap(grad_v_, tan_v_);
    return;
  }
  {
    // Off the last Forward's rows the upstream is zero, and so is the
    // gradient exp_o's backward would add there.
    TraceSpan span("expmap");
    tan_u_.SetZero();
    tan_v_.SetZero();
    ExpMapOriginBackward(sum_u_, grad_u_, &tan_u_, UserRows(rows_));
    ExpMapOriginBackward(sum_v_, grad_v_, &tan_v_, ItemRows(rows_));
  }
  {
    TraceSpan span("gcn_bwd");
    gcn.Backward(tan_u_, tan_v_, &sum_u_, &sum_v_, &ctx_);
  }
  TraceSpan span("logmap");
  grad_u_.SetZero();
  grad_v_.SetZero();
  LogMapOriginBackward(users, sum_u_, &grad_u_);
  LogMapOriginBackward(items, sum_v_, &grad_v_);
}

void GcnChannel::Step(Matrix* leaves, const Matrix& grad, double lr,
                      double grad_clip) const {
  TraceSpan span("rsgd");
  if (hyperbolic_) {
    optim::LorentzRsgdUpdate(leaves, grad, lr, grad_clip);
  } else {
    optim::SgdUpdate(leaves, grad, lr);
    optim::ProjectRowsToBall(leaves, kEuclidMaxNorm);
  }
}

void GcnChannel::ReleaseStepBuffers() {
  rows_ = nullptr;
  ctx_ = GcnContext();
  tan_u_ = tan_v_ = sum_u_ = sum_v_ = grad_u_ = grad_v_ = Matrix();
}

namespace {

// Â = D_u^{-1/2} X D_v^{-1/2} from the binary interaction matrix.
CsrMatrix SymmetricNormalized(const CsrMatrix& x) {
  std::vector<double> du(x.rows(), 0.0), dv(x.cols(), 0.0);
  for (size_t r = 0; r < x.rows(); ++r) {
    for (uint32_t c : x.RowCols(r)) {
      du[r] += 1.0;
      dv[c] += 1.0;
    }
  }
  std::vector<std::tuple<uint32_t, uint32_t, double>> triplets;
  triplets.reserve(x.nnz());
  for (size_t r = 0; r < x.rows(); ++r) {
    for (uint32_t c : x.RowCols(r)) {
      const double w = 1.0 / std::sqrt(du[r] * dv[c]);
      triplets.emplace_back(static_cast<uint32_t>(r), c, w);
    }
  }
  return CsrMatrix::FromTriplets(x.rows(), x.cols(), std::move(triplets));
}

}  // namespace

LightGcnPropagation::LightGcnPropagation(const CsrMatrix& interactions,
                                         int num_layers)
    : num_layers_(num_layers),
      a_(SymmetricNormalized(interactions)),
      a_t_(a_.Transposed()) {
  TAXOREC_CHECK(num_layers >= 1);
}

void LightGcnPropagation::Forward(const Matrix& zu0, const Matrix& zv0,
                                  GcnContext* ctx, Matrix* out_u,
                                  Matrix* out_v) const {
  TAXOREC_CHECK(zu0.rows() == num_users() && zv0.rows() == num_items());
  *out_u = zu0;
  *out_v = zv0;
  // Z^{l+1} goes to ctx buffer l % 2.
  const Matrix* zu = &zu0;
  const Matrix* zv = &zv0;
  for (int l = 0; l < num_layers_; ++l) {
    Matrix* next_u = &ctx->u[l % 2];
    Matrix* next_v = &ctx->v[l % 2];
    a_.Multiply(*zv, next_u);
    a_t_.Multiply(*zu, next_v);
    out_u->Axpy(1.0, *next_u);
    out_v->Axpy(1.0, *next_v);
    zu = next_u;
    zv = next_v;
  }
  const double inv = 1.0 / static_cast<double>(num_layers_ + 1);
  for (double& x : out_u->flat()) x *= inv;
  for (double& x : out_v->flat()) x *= inv;
}

void LightGcnPropagation::Backward(const Matrix& up_u, const Matrix& up_v,
                                   Matrix* grad_u0, Matrix* grad_v0,
                                   GcnContext* ctx) const {
  TAXOREC_CHECK(up_u.rows() == num_users() && up_v.rows() == num_items());
  TAXOREC_CHECK(grad_u0 != &up_u && grad_v0 != &up_v);
  GcnContext scratch;
  if (ctx == nullptr) ctx = &scratch;
  // out = (1/(L+1)) * sum_l Z^l with Z^{l+1} = op(Z^l) and op swapping
  // sides; adjoint: a^L = up/(L+1); a^l = up/(L+1) + op^T(a^{l+1}).
  // a^l lives in the outputs for even l and in ctx buffer 0 for odd l, so
  // a^0 lands in the outputs.
  const double inv = 1.0 / static_cast<double>(num_layers_ + 1);
  auto slot_u = [&](int l) { return l % 2 == 0 ? grad_u0 : &ctx->u[0]; };
  auto slot_v = [&](int l) { return l % 2 == 0 ? grad_v0 : &ctx->v[0]; };
  Matrix* au = slot_u(num_layers_);
  Matrix* av = slot_v(num_layers_);
  *au = up_u;
  *av = up_v;
  for (double& x : au->flat()) x *= inv;
  for (double& x : av->flat()) x *= inv;
  for (int l = num_layers_ - 1; l >= 0; --l) {
    Matrix* next_au = slot_u(l);
    Matrix* next_av = slot_v(l);
    // Z_u^{l+1} = Â Z_v^l → contributes Â^T a_u^{l+1} to a_v^l, and
    // Z_v^{l+1} = Â^T Z_u^l → contributes Â a_v^{l+1} to a_u^l.
    a_.Multiply(*av, next_au);
    a_t_.Multiply(*au, next_av);
    for (size_t i = 0; i < next_au->flat().size(); ++i) {
      next_au->flat()[i] += inv * up_u.flat()[i];
    }
    for (size_t i = 0; i < next_av->flat().size(); ++i) {
      next_av->flat()[i] += inv * up_v.flat()[i];
    }
    au = next_au;
    av = next_av;
  }
}

}  // namespace taxorec::nn
