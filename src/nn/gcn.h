// Bipartite graph-convolution propagation (Eq. 13–14) with exact backward.
//
// Forward per layer (simultaneous update from layer-l values):
//   Zu^{l+1} = (Zu^l + Pui Zv^l) / 2   (Pui: row-normalized user→item)
//   Zv^{l+1} = (Zv^l + Piu Zu^l) / 2   (Piu: row-normalized item→user)
// Outputs are the layer sums  out = sum_{l=1..L} Z^l.
//
// The 1/2 normalizes the residual mix (Eq. 13 as written has per-layer gain
// up to 2, i.e. 2^L overall, which in the Lorentz pipeline pushes points far
// from the origin and collapses training — see DESIGN.md §4). Since both
// terms are row-stochastic-weighted, layer magnitudes stay bounded by the
// inputs' and the paper's margin grid m ∈ [0.1, 0.4] stays meaningful.
// All operations are linear, so the backward pass is the adjoint recursion
// with the transposed operators; it needs none of the forward activations.
//
// Each layer is one SpMM per side (CsrMatrix::MultiplyAdd) whose initial
// value is the self term. The row kernel applies the 1/2 scale and the
// layer-sum (forward) or upstream (backward) add as it stores each result
// (CsrMatrix::LayerFinish), so a layer is one pass over its output. Per
// element this is the same double sequence as separate copy, SpMM, scale
// and add passes.
//
// A training step reads the outputs only at its batch's users and items
// (BatchRows). Layers 1..L-1 feed the next layer, so they cover every row;
// the last layer, and the channel's exp_o after it, run only on the listed
// rows, each computed exactly as in the full pass. The GCN backward still
// covers every row; exp_o's backward visits only the listed rows, since
// its upstream is zero off them.
#ifndef TAXOREC_NN_GCN_H_
#define TAXOREC_NN_GCN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/sampler.h"
#include "math/csr.h"
#include "math/matrix.h"
#include "math/rng.h"

namespace taxorec::nn {

/// The output rows a training batch reads: its distinct users and its
/// distinct positive and negative items, each list ascending.
struct BatchRows {
  std::vector<uint32_t> users, items;
  /// Sets both lists from the batch's triplets; allocates only to grow.
  void Assign(std::span<const Triplet> batch);
};

/// Caller-owned workspace of the propagation operators: the layer buffers
/// Forward and Backward ping-pong through. Reusing one context across calls
/// makes both passes allocation-free once its buffers have their shapes
/// (they are resized when the shapes change). Its contents between calls
/// are scratch.
struct GcnContext {
  Matrix u[2];  // users × D
  Matrix v[2];  // items × D
};

/// Bipartite LightGCN-style propagation operator.
class BipartiteGcn {
 public:
  /// `interactions` is the binary user×item matrix X (training split).
  BipartiteGcn(const CsrMatrix& interactions, int num_layers);

  int num_layers() const { return num_layers_; }

  /// Computes out_u = sum_{l=1..L} Zu^l (and likewise out_v) from inputs
  /// Zu0 (users × D), Zv0 (items × D), with ctx as the layer workspace.
  /// With `last` the last layer computes only its listed rows: every other
  /// row of out_u and out_v is stale (a partial or an earlier sum).
  void Forward(const Matrix& zu0, const Matrix& zv0, GcnContext* ctx,
               Matrix* out_u, Matrix* out_v,
               const BatchRows* last = nullptr) const;

  /// Computes grad wrt the inputs: grad_u0/grad_v0 are *overwritten* with
  /// the adjoints of upstream gradients on (out_u, out_v). `ctx` is the
  /// layer workspace (null: a temporary one).
  void Backward(const Matrix& up_u, const Matrix& up_v, Matrix* grad_u0,
                Matrix* grad_v0, GcnContext* ctx = nullptr) const;

  size_t num_users() const { return pui_.rows(); }
  size_t num_items() const { return piu_.rows(); }

 private:
  int num_layers_;
  CsrMatrix pui_;    // user → item, rows sum to 1
  CsrMatrix piu_;    // item → user, rows sum to 1
  CsrMatrix pui_t_;  // transpose of pui_
  CsrMatrix piu_t_;  // transpose of piu_
};

/// One channel of global aggregation over a BipartiteGcn (TaxoRec runs two,
/// HGCF one): exp_o(GCN(log_o(leaves))) (Eq. 12–15), Lorentz squared
/// distances and Lorentz RSGD on hyperboloid leaves; GCN(leaves), squared
/// distances and SGD into the ball of radius 1.5 (CML's) on Euclidean ones.
/// It owns its caches and step buffers, so once sized a step allocates no
/// leaf-sized matrix; the operator and the leaves are the caller's.
class GcnChannel {
 public:
  explicit GcnChannel(bool hyperbolic) : hyperbolic_(hyperbolic) {}

  /// Leaf row width for `dim` coordinates (+1 on the hyperboloid).
  size_t cols(size_t dim) const { return hyperbolic_ ? dim + 1 : dim; }
  /// Sets each row, in order, to a random point near the origin (σ = 0.1).
  void InitLeaves(Rng* rng, Matrix* leaves) const;

  /// Computes the outputs from the leaves; with `rows` (a training step's
  /// batch, unchanged until the Backward that follows) only at the listed
  /// rows, the rest of out_u()/out_v() left stale.
  void Forward(const BipartiteGcn& gcn, const Matrix& users,
               const Matrix& items, const BatchRows* rows = nullptr);
  const Matrix& out_u() const { return out_u_; }
  const Matrix& out_v() const { return out_v_; }
  /// Accumulates s times the gradients of the squared distance between
  /// user u's and item v's outputs into output-wide rows.
  void AddSqDistanceGrad(uint32_t u, uint32_t v, double s,
                         std::span<double> grad_u,
                         std::span<double> grad_v) const;

  /// Zeroes grad_u()/grad_v() in the outputs' shapes. Backward turns these
  /// gradients on the outputs into ones on the last Forward's leaves, and
  /// overwrites that Forward's caches (not its outputs). After a
  /// batch-limited Forward the gradients must be zero off its rows.
  void ZeroGrads();
  Matrix& grad_u() { return grad_u_; }
  Matrix& grad_v() { return grad_v_; }
  void Backward(const BipartiteGcn& gcn, const Matrix& users,
                const Matrix& items);

  /// Steps `leaves` against `grad`; grad_clip (<= 0: none) clips each
  /// gradient row on the hyperboloid only.
  void Step(Matrix* leaves, const Matrix& grad, double lr,
            double grad_clip) const;
  /// Frees all but the outputs; the next Forward re-sizes what it needs.
  void ReleaseStepBuffers();

 private:
  bool hyperbolic_;
  const BatchRows* rows_ = nullptr;  // the last Forward's; null: every row
  GcnContext ctx_;
  // On the hyperboloid tan_ holds log_o of the leaves, then the gradient on
  // the GCN outputs, and sum_ the GCN outputs, then the gradient on its
  // inputs. In Euclidean space tan_ takes the GCN's input gradient.
  Matrix tan_u_, tan_v_, sum_u_, sum_v_;
  Matrix out_u_, out_v_;
  Matrix grad_u_, grad_v_;  // gradient on the outputs, then on the leaves
};

/// Faithful LightGCN propagation: symmetric-normalized pure neighbour
/// aggregation WITHOUT self-connections,
///   Zu^{l+1} = Â Zv^l,   Zv^{l+1} = Â^T Zu^l,   Â = D_u^{-1/2} X D_v^{-1/2},
/// and the final representation is the mean of layers 0..L. This is
/// deliberately distinct from BipartiteGcn: TaxoRec's Eq. 13 carries a
/// residual self-term; LightGCN's defining design drops self-connections.
class LightGcnPropagation {
 public:
  LightGcnPropagation(const CsrMatrix& interactions, int num_layers);

  int num_layers() const { return num_layers_; }

  /// out = mean(Z^0 .. Z^L), with ctx as the layer workspace.
  void Forward(const Matrix& zu0, const Matrix& zv0, GcnContext* ctx,
               Matrix* out_u, Matrix* out_v) const;

  /// Overwrites grad_u0/grad_v0 with the adjoints of upstream gradients on
  /// the outputs. `ctx` is the layer workspace (null: a temporary one).
  void Backward(const Matrix& up_u, const Matrix& up_v, Matrix* grad_u0,
                Matrix* grad_v0, GcnContext* ctx = nullptr) const;

  size_t num_users() const { return a_.rows(); }
  size_t num_items() const { return a_.cols(); }

 private:
  int num_layers_;
  CsrMatrix a_;    // Â, user × item
  CsrMatrix a_t_;  // Â^T
};

}  // namespace taxorec::nn

#endif  // TAXOREC_NN_GCN_H_
