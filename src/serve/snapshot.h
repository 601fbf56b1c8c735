// The scoring view: the kernel (metric) and the rows a model scores with,
// declared once (Recommender::scoring_rows) and read in place by the
// model's ScoreItems and training hinge, FrozenModel and the compact and
// IVF builds. It depends only on Matrix and the two distances, so
// baselines/recommender.h can name it without the serving layer.
//
// Lifetime: a view copies nothing, so the model it reads (its rows, or
// for kVirtual the model itself through `live`) must outlive it and every
// FrozenModel and BatchServer built on it, and must not train while they
// serve. CompactSnapshot and IvfIndex encode copies of their own. Between
// BeginFit and EndFit, only the last batch's output rows are current.
#ifndef TAXOREC_SERVE_SNAPSHOT_H_
#define TAXOREC_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <span>

#include "hyperbolic/lorentz.h"
#include "math/matrix.h"
#include "math/vec_ops.h"

namespace taxorec {

class Recommender;

/// Metrics a FrozenModel can evaluate natively (block by block, without
/// materializing a full per-user score row). Either distance metric may
/// carry a tag channel (ScoringSnapshot::has_tag_channel()).
enum class ScoreKernel {
  /// score = <u, v> (inner-product models: BPRMF, LightGCN, ...).
  kDot,
  /// score = -||u - v||^2 (Euclidean metric models: CML family).
  kNegSqDist,
  /// score = -d_H(u, v)^2 on the hyperboloid (HyperML, TaxoRec).
  kNegLorentzSqDist,
  /// Fallback: delegate full-row scoring to the live model's ScoreItems;
  /// no block streaming.
  kVirtual,
};

/// A view of a model's scoring rows, one row per user or item; kVirtual
/// reads `live` instead.
struct ScoringSnapshot {
  ScoreKernel kernel = ScoreKernel::kVirtual;
  const Matrix* users = nullptr;
  const Matrix* items = nullptr;
  /// Tag channel of a distance kernel, all three or none: the score is
  /// -(dist(u, v) + alpha_u * dist(u_tg, v_tg)), the tag term only when
  /// alpha_u > 0. Present exactly when `alpha` is non-empty.
  const Matrix* users_tg = nullptr;
  const Matrix* items_tg = nullptr;
  /// Per-user tag-channel weight alpha_u, one per user.
  std::span<const double> alpha = {};
  /// The model a kVirtual view scores through; null for native kernels.
  const Recommender* live = nullptr;

  bool has_tag_channel() const { return !alpha.empty(); }

  /// g(u, v) of Eq. 17 on a distance kernel: the squared distance
  /// (vec::SqDist, or lorentz::SqDistance on the hyperboloid) of the
  /// user's and the item's rows, plus alpha_u times that of their tag rows
  /// when alpha_u > 0. The kernel scores -g; TaxoRec's and HGCF's hinges
  /// train on g.
  double PairDistance(uint32_t user, uint32_t item) const {
    const auto dist =
        kernel == ScoreKernel::kNegSqDist ? &vec::SqDist : &lorentz::SqDistance;
    double g = dist(users->row(user), items->row(item));
    const double a = alpha.empty() ? 0.0 : alpha[user];
    if (a > 0.0) g += a * dist(users_tg->row(user), items_tg->row(item));
    return g;
  }
};

}  // namespace taxorec

#endif  // TAXOREC_SERVE_SNAPSHOT_H_
