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
// value is the self term; the 1/2 scale and the layer-sum (forward) or
// upstream (backward) add run in the same row pass, on each row chunk right
// after the kernel wrote it. Per element this is the same double sequence
// as separate copy, SpMM, scale and add passes.
#ifndef TAXOREC_NN_GCN_H_
#define TAXOREC_NN_GCN_H_

#include "math/csr.h"
#include "math/matrix.h"

namespace taxorec::nn {

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
  void Forward(const Matrix& zu0, const Matrix& zv0, GcnContext* ctx,
               Matrix* out_u, Matrix* out_v) const;

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
