// FrozenModel: a servable view of a trained recommender.
//
// Freeze() takes the model's scoring view (serve/snapshot.h) and checks
// it against the dataset shape. Native views (every kernel but kVirtual)
// score item *blocks* straight from the model's own row-major rows, which is
// what lets the serving kernel (serve/topk.h) stream the catalogue through
// a bounded heap instead of materializing a full score row per user — the
// O(users · items) buffer churn that "Scalable Hyperbolic Recommender
// Systems" identifies as the production bottleneck.
//
// Precision tiers (serve/compact_snapshot.h). Each tier has one item loop
// per metric, plus the optional alpha_u-weighted tag-channel term
// (ScoringSnapshot::has_tag_channel). The default kDouble tier reads the
// model's own rows and is bit-identical to its ScoreItems: every kernel
// evaluates the same per-pair operations in the same order on the same
// parameters. Its distance loop scores a block for a group of up to
// kScoreGroup users at once, one user per AVX2 lane, so each item
// coordinate is loaded once for the group while every lane runs its own
// user's chain (a group of one, and the portable backend, interleave four
// item rows per user instead); neither reorders the math within a pair.
// Given one cutoff per user, it also skips items that provably score below
// it, bounding both channels of Eq. 17 item by item (ScoreBlock). The kFloat32
// tier scores through the vectorized float32 kernels (serve/kernels_f32.h)
// over a padded, 64-byte-aligned CompactSnapshot — deterministic across
// backends (AVX2 vs portable) and within a documented top-K rank-stability
// tolerance of the double path. The kInt8 tier scores coarse int8
// surrogates; the top-K layer exact-rescores its head candidates in
// float32 (RerankInt8Head, serve/topk.h), so served scores are always
// float32-exact.
// Non-native (kVirtual) views always serve in double; requesting a
// reduced tier for them degrades to kDouble with a warning.
#ifndef TAXOREC_SERVE_FROZEN_MODEL_H_
#define TAXOREC_SERVE_FROZEN_MODEL_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "serve/compact_snapshot.h"
#include "serve/snapshot.h"

namespace taxorec {

class Recommender;
class IvfIndex;
struct IvfOptions;

/// Most users one ScoreBlock call scores: one per lane of two AVX2
/// registers in the double tier's distance loop.
inline constexpr size_t kScoreGroup = 8;

class FrozenModel {
 public:
  /// Serves `model`'s scoring view at the given tier. The split gives a
  /// kVirtual view its shape and checks a native one's.
  static FrozenModel Freeze(const Recommender& model, const DataSplit& split,
                            PrecisionTier tier = PrecisionTier::kDouble);

  /// Serves a native view (hand-built rows, or another tier's).
  explicit FrozenModel(ScoringSnapshot view,
                       PrecisionTier tier = PrecisionTier::kDouble);

  // Out-of-line because IvfIndex is incomplete here (serve/ivf_index.h
  // includes this header); both are defaulted in the .cc.
  ~FrozenModel();
  FrozenModel(FrozenModel&&) noexcept;
  FrozenModel& operator=(FrozenModel&&) noexcept;

  size_t num_users() const { return num_users_; }
  size_t num_items() const { return num_items_; }
  ScoreKernel kernel() const { return snap_.kernel; }
  /// True when ScoreBlock is available (non-kVirtual).
  bool native() const { return snap_.kernel != ScoreKernel::kVirtual; }
  const ScoringSnapshot& snapshot() const { return snap_; }

  /// The tier this model actually scores with (may be kDouble even if a
  /// reduced tier was requested, for kVirtual views).
  PrecisionTier tier() const { return tier_; }
  /// Compact encoding backing the reduced tiers; null in kDouble.
  const CompactSnapshot* compact() const { return compact_.get(); }
  /// Bytes of the scoring payload the active tier reads (the model's rows
  /// + per-user alpha on the double tier; the int8 tier counts both the
  /// quantized and the float32 channels, since the re-rank reads the latter).
  size_t snapshot_bytes() const;

  /// Scores every item for `user`; out.size() == num_items(). Works for
  /// every kernel (kVirtual delegates to the live model).
  void ScoreAll(uint32_t user, std::span<double> out) const;

  /// Scores items [begin, end) for each user of `users`, a group of 1 to
  /// kScoreGroup users, into one row per user: out[i * (end - begin) + j]
  /// is users[i]'s score for item begin + j. Native kernels only (checked).
  /// cutoffs[i] is users[i]'s pruning cutoff (empty: none). On the double
  /// tier's distance kernels, an item that provably scores below its
  /// user's cutoff — by a lower bound on each channel's distance of its
  /// own, from a fixed table of chords on the Lorentz metric and exact on
  /// the Euclidean one (DESIGN.md §10) — is written as -Inf without the
  /// rest of its score; the return value counts those items over the
  /// group. Every other slot is exactly ScoreAll's value, a slot is pruned
  /// only if ScoreAll's value is < the cutoff, so a NaN score is never
  /// pruned, and a row depends neither on the rest of the group nor on the
  /// SIMD level. kDot and the float32 and int8 tiers ignore the cutoffs
  /// and return 0.
  /// `scratch` is the caller's working space: at least
  /// ScoreBlockScratch(users.size(), end - begin) doubles (checked).
  size_t ScoreBlock(std::span<const uint32_t> users, size_t begin, size_t end,
                    std::span<double> out,
                    std::span<const double> cutoffs = {},
                    std::span<double> scratch = {}) const;

  /// Doubles of `scratch` a ScoreBlock call over `group` users and at most
  /// `items` items uses.
  size_t ScoreBlockScratch(size_t group, size_t items) const;

  /// Builds the IVF retrieval index (serve/ivf_index.h) over this model's
  /// rows. Returns false (with a warning) when the model cannot host
  /// one — kVirtual views and the double tier stay exact-only. Not
  /// thread-safe; call before serving starts.
  bool BuildIvf(const IvfOptions& opts);
  /// The IVF index, or null when none was built.
  const IvfIndex* ivf() const { return ivf_.get(); }

 private:
  FrozenModel(ScoringSnapshot view, size_t num_users, size_t num_items,
              PrecisionTier tier);

  ScoringSnapshot snap_;
  size_t num_users_, num_items_;
  PrecisionTier tier_ = PrecisionTier::kDouble;
  // unique_ptr keeps FrozenModel cheaply movable; null in kDouble.
  std::unique_ptr<CompactSnapshot> compact_;
  // Optional sub-linear retrieval structure; null unless BuildIvf ran.
  std::unique_ptr<IvfIndex> ivf_;
};

}  // namespace taxorec

#endif  // TAXOREC_SERVE_FROZEN_MODEL_H_
