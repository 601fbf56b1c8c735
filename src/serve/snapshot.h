// Scoring snapshots: the immutable data a Recommender exports for serving.
//
// A ScoringSnapshot captures everything needed to score (user, item) pairs
// without the live model: cache-friendly row-major embedding blocks plus a
// kernel tag naming the metric. TaxoRec's Eq. 17 adds alpha_u times the same
// metric on a tag channel; that channel is optional data on the snapshot,
// not a kernel of its own. Models export one via
// Recommender::ExportScoringSnapshot(); FrozenModel (serve/frozen_model.h)
// wraps it for block-wise evaluation. The struct lives in its own header —
// depending only on Matrix — so baselines/recommender.h can name it without
// pulling the serving layer into every model TU.
#ifndef TAXOREC_SERVE_SNAPSHOT_H_
#define TAXOREC_SERVE_SNAPSHOT_H_

#include <cstddef>
#include <vector>

#include "math/matrix.h"

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
  /// Fallback: delegate full-row scoring to the live model's ScoreItems.
  /// The model must outlive the snapshot; no block streaming.
  kVirtual,
};

/// Immutable export of a trained model's scoring state. Native kernels own
/// copies of the embedding blocks (row-major, one row per user/item), so
/// the snapshot stays valid after the model is destroyed or retrained; the
/// kVirtual fallback instead borrows the live model.
struct ScoringSnapshot {
  ScoreKernel kernel = ScoreKernel::kVirtual;
  size_t num_users = 0;
  size_t num_items = 0;
  /// Primary channel (every native kernel): rows are user / item vectors.
  Matrix users;
  Matrix items;
  /// Optional tag channel of a distance kernel (Eq. 17): the score becomes
  /// -(dist(u, v) + alpha_u * dist(u_tg, v_tg)), the tag term applied only
  /// when alpha_u > 0. Present exactly when `alpha` is non-empty.
  Matrix users_tg;
  Matrix items_tg;
  /// Per-user tag-channel weight alpha_u, one per user.
  std::vector<double> alpha;
  /// Live model backing a kVirtual snapshot (not owned; must outlive every
  /// FrozenModel built from this snapshot). Null for native kernels.
  const Recommender* live = nullptr;

  bool has_tag_channel() const { return !alpha.empty(); }
};

}  // namespace taxorec

#endif  // TAXOREC_SERVE_SNAPSHOT_H_
