// Vectorized float32 / int8 scoring kernels over CompactSnapshot blocks.
//
// Canonical float32 semantics — THE reference every backend must match
// bit-for-bit (and tests/precision_tier_test.cc asserts):
//
//   * Reductions (dot, squared distance) run 16 strided fused-multiply-add
//     lanes: lane j accumulates elements j, j+16, j+32, ... with
//     fmaf(a, b, lane). Rows are padded to a multiple of 16 floats with
//     zeros (serve/compact_snapshot.h), so no tail loop exists and the
//     padding contributes exact zeros.
//   * Lane reduction: m[j] = l[j] + l[j+8] for j in [0,8) — the vector add
//     of the two AVX2 accumulators — then the tree
//     ((m0+m4) + (m2+m6)) + ((m1+m5) + (m3+m7)), which is exactly what the
//     extract/movehl/shuffle horizontal-add sequence computes.
//   * Lorentz: inner_L = dot - 2*(x0*y0); beta = max(1, -inner_L) with the
//     double path's NaN semantics (NaN passes through, sanitized to -Inf
//     later); d^2 = acoshf(beta)^2.
//   * Tag-channel combine (alpha_u > 0): g = fmaf(alpha, d_tg^2, d_ir^2);
//     score = -g.
//
// Two backends implement these semantics: an AVX2/FMA one (compiled via
// function-level target attributes when TAXOREC_ENABLE_AVX2 is defined,
// selected at runtime by the shared probe and test cap of math/simd.h)
// and a portable scalar one (std::fmaf).
// Because both follow the canonical lane algorithm they produce identical
// bits, so runtime dispatch never changes served results. The per-row
// scalar transforms (acosh, combine) are shared noinline functions so the
// AVX2 translation unit attributes cannot alter their code generation.
//
// Each tier writes one item loop per metric; with a tag channel, the
// distance loops add the combine pass.
//
// The int8 kernels are a coarse ranking tier only (scalar int32
// accumulation, shared symmetric scales); serve/topk.cc exact-rescores
// their top candidates through the float32 tier's own code path.
#ifndef TAXOREC_SERVE_KERNELS_F32_H_
#define TAXOREC_SERVE_KERNELS_F32_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "serve/compact_snapshot.h"

namespace taxorec::f32 {

/// Accumulation lanes of the canonical reduction (two AVX2 vectors).
inline constexpr size_t kLanes = 16;

/// Name of the backend the float32 kernels run at the active SIMD level
/// (math/simd.h): "avx2" at every level above portable, else "portable".
const char* ActiveBackendName();

/// Scores items [begin, end) for `user` in float32 with the active
/// backend, widening each score to double in dst[0 .. end-begin). The
/// per-pair arithmetic is the canonical semantics above for every kernel,
/// with or without a tag channel; results are independent of the backend.
void ScoreRowRangeF32(const CompactSnapshot& s, uint32_t user, size_t begin,
                      size_t end, double* dst);

/// Float32-exact scores for an explicit candidate list (the int8 tier's
/// re-rank): the ScoreRowRangeF32 code path run on each candidate alone,
/// so it is bit-identical per pair by construction.
void ScoreItemsF32(const CompactSnapshot& s, uint32_t user,
                   std::span<const uint32_t> items, double* dst);

/// Coarse int8 scores for items [begin, end): quantized inner products /
/// distances dequantized through the snapshot's shared scales. Monotone
/// surrogates of the float32 scores up to quantization error — ranking
/// quality is gated by kInt8TopKOverlap after the float32 re-rank.
void ScoreRowRangeInt8(const CompactSnapshot& s, uint32_t user, size_t begin,
                       size_t end, double* dst);

}  // namespace taxorec::f32

#endif  // TAXOREC_SERVE_KERNELS_F32_H_
