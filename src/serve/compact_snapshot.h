// Compact serving snapshots: reduced-precision copies of the rows a
// ScoringSnapshot views.
//
// Training stays in double precision; serving tolerates less ("Scalable
// Hyperbolic Recommender Systems" runs production hyperbolic recsys in
// float32, and low-dimensional hyperbolic models keep quality — PAPERS.md).
// A CompactSnapshot re-encodes the rows of a native ScoringSnapshot as:
//
//   float32 channels — rows padded to kCompactRowPad floats (a 64-byte
//     block, two AVX2 vectors) and stored 64-byte-aligned, so the f32
//     kernels (serve/kernels_f32.h) use aligned vector loads and padded
//     tails are guaranteed zero (zeros are additive identities for every
//     kernel's accumulation, so padding never perturbs a score);
//
//   int8 channels (optional) — symmetric per-channel quantization with one
//     shared scale per channel pair (users+items, users_tg+items_tg):
//     q = round(x / scale) clamped to [-127, 127], scale = max|x| / 127
//     over BOTH matrices of the pair. Sharing the scale makes squared
//     distances and Lorentz inner products dequantizable with a single
//     scale^2 factor. The int8 tier is a coarse ranking stage only: the
//     top kInt8RerankFactor * K coarse candidates are exact-rescored in
//     float32 (serve/topk.cc), so served scores are always float32-exact.
//
// Rank-stability contract (asserted by tests/precision_tier_test.cc and
// bench_serve, documented in DESIGN.md §11): mean top-K overlap vs the
// double path >= kFloat32TopKOverlap for the float32 tier and
// >= kInt8TopKOverlap for the int8 tier, for every native kernel, with and
// without a tag channel.
// The float32 dot kernel is additionally bit-identical to the canonical
// scalar float reduction (serve/kernels_f32.h).
#ifndef TAXOREC_SERVE_COMPACT_SNAPSHOT_H_
#define TAXOREC_SERVE_COMPACT_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "math/aligned.h"
#include "serve/snapshot.h"

namespace taxorec {

/// Numeric representation a FrozenModel scores with. kDouble is the seed
/// path (bit-identical to the live model); kFloat32 scores in vectorized
/// float32; kInt8 ranks coarsely in int8 and exact-rescores the head in
/// float32.
enum class PrecisionTier { kDouble, kFloat32, kInt8 };

const char* PrecisionTierName(PrecisionTier tier);

/// Parses "double" / "float32" / "int8" (the --precision flag values).
/// Returns false on anything else.
bool ParsePrecisionTier(const std::string& text, PrecisionTier* tier);

/// Floats per padded row block: 16 floats = 64 bytes = two AVX2 vectors.
/// Every row stride is a multiple of this, so row starts stay 64-aligned.
inline constexpr size_t kCompactRowPad = 16;

/// Documented rank-stability tolerances: mean top-K overlap vs the double
/// path, averaged over users (see DESIGN.md §11).
inline constexpr double kFloat32TopKOverlap = 0.90;
inline constexpr double kInt8TopKOverlap = 0.85;

/// Coarse candidate multiplier for the int8 tier: the top 4*K coarse
/// candidates are exact-rescored in float32 before the final top-K.
inline constexpr size_t kInt8RerankFactor = 4;

/// One float32 embedding block: `rows` rows of `dim` logical floats stored
/// with `stride` floats per row (stride = dim rounded up to kCompactRowPad;
/// the [dim, stride) tail of every row is zero).
struct CompactChannel {
  size_t rows = 0;
  size_t dim = 0;
  size_t stride = 0;
  AlignedBuffer<float> data;

  bool empty() const { return rows == 0; }
  const float* row(size_t r) const { return data.data() + r * stride; }
  float* row(size_t r) { return data.data() + r * stride; }
  size_t bytes() const { return data.size() * sizeof(float); }
};

/// One int8 quantized block with the same padded layout (zero tails).
struct QuantChannel {
  size_t rows = 0;
  size_t dim = 0;
  size_t stride = 0;
  AlignedBuffer<int8_t> data;

  bool empty() const { return rows == 0; }
  const int8_t* row(size_t r) const { return data.data() + r * stride; }
  int8_t* row(size_t r) { return data.data() + r * stride; }
  size_t bytes() const { return data.size() * sizeof(int8_t); }
};

/// Reduced-precision re-encoding of a native ScoringSnapshot's rows.
/// Channels mirror the view: primary users/items for every kernel, tag
/// channel + per-user alpha when the view has a tag channel. The
/// float32 channels are always built; the int8 channels only when
/// requested (the int8 tier needs both — float32 backs the exact re-rank).
struct CompactSnapshot {
  ScoreKernel kernel = ScoreKernel::kVirtual;
  size_t num_users = 0;
  size_t num_items = 0;

  CompactChannel users;
  CompactChannel items;
  CompactChannel users_tg;
  CompactChannel items_tg;
  /// Per-user tag-channel weight; empty without a tag channel (alpha_u > 0
  /// enables the tag term, exactly as in the double path).
  std::vector<float> alpha;

  bool has_int8 = false;
  QuantChannel users_q;
  QuantChannel items_q;
  QuantChannel users_tg_q;
  QuantChannel items_tg_q;
  /// Shared symmetric dequantization scales (value ~= scale * q), one per
  /// channel pair.
  float int8_scale_ir = 0.0f;
  float int8_scale_tg = 0.0f;

  /// Encodes the rows a native view points at (kVirtual is not encodable;
  /// checked); with_int8 adds the quantized channels. A non-empty
  /// item_perm reorders the item channels: slot s holds original item
  /// item_perm[s] (item_perm must be a permutation of [0, num_items)).
  /// Narrowing and quantization are per-element, so slot s is
  /// bit-identical to row item_perm[s] of the unpermuted build, and the
  /// int8 scales are unchanged (max|x| is order-invariant). This is the
  /// IVF cell layout: members of one cell occupy contiguous slots, so the
  /// f32/int8 row-range kernels sweep a cell with aligned sequential loads
  /// (serve/ivf_index.h).
  static CompactSnapshot Build(const ScoringSnapshot& snapshot, bool with_int8,
                               const std::vector<uint32_t>& item_perm = {});

  bool has_tag_channel() const { return !alpha.empty(); }
  /// Payload bytes of the float32 channels (+ alpha).
  size_t float32_bytes() const;
  /// Payload bytes of the int8 channels (0 when has_int8 is false).
  size_t int8_bytes() const;
};

}  // namespace taxorec

#endif  // TAXOREC_SERVE_COMPACT_SNAPSHOT_H_
