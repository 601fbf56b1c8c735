// IVF two-stage retrieval over Poincaré k-means cells (DESIGN.md §15).
//
// The exact serving path scores every catalogue item per request — the
// O(users · items) shape that caps hyperbolic recsys throughput at scale.
// The IVF index trades a bounded slice of recall for sub-linear work:
//
//   Build (snapshot-export time): catalogue items are mapped to the
//   Poincaré ball and coarse-quantized with PoincareKMeans — the same
//   quantizer the taxonomy builder uses — into ~sqrt(num_items) cells.
//   Each cell stores a representative point in the kernel's native
//   geometry plus a per-channel metric radius (max distance from the
//   representative to any member). The item channels of the compact
//   float32/int8 snapshot are re-laid out cell-contiguously (ascending
//   item id within a cell), so probing a cell is one aligned row-range
//   sweep of the frozen SIMD kernels.
//
//   Query: per-cell score upper bounds are computed from the user's row
//   and the (representative, radius) pair — for the Lorentz kernels the
//   bound rides on the monotonicity of d_H = acosh(-<u,v>_L) in the
//   Lorentz inner product together with the triangle inequality
//   d_H(u, x) >= d_H(u, c) - r for members x of a cell (c, r), giving
//   score(u, x) = -d_H(u, x)^2 <= -max(0, d_H(u, c) - r)^2. Cells are
//   probed in descending bound order; once the top-K heap is full, a cell
//   whose bound (plus a float32 rounding slack) ranks below the heap's
//   worst entry cannot contribute, and every later cell has a lower bound
//   still — the probe loop stops. `nprobe` caps the number of scored
//   cells; nprobe == num_cells() makes the result identical to the exact
//   scan (the pruning-bound property test pins this).
//
// The exact path stays the default and the correctness oracle
// (--retrieval exact|ivf in taxorec_serve). Probe/prune/scored counters
// flow through the serve metrics registry; recall-vs-QPS curves come from
// bench_retrieval.
#ifndef TAXOREC_SERVE_IVF_INDEX_H_
#define TAXOREC_SERVE_IVF_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "math/matrix.h"
#include "serve/topk.h"

namespace taxorec {

/// Candidate-generation strategy for the serving path (--retrieval).
enum class RetrievalMode { kExact, kIvf };

const char* RetrievalModeName(RetrievalMode mode);

/// Parses "exact" / "ivf" (the --retrieval flag values).
bool ParseRetrievalMode(const std::string& text, RetrievalMode* mode);

/// Build/probe parameters for the IVF index.
struct IvfOptions {
  /// Number of coarse cells; 0 picks round(sqrt(num_items)), the standard
  /// IVF balance point between probe cost (~cells) and cell sweep cost
  /// (~items/cells).
  size_t num_cells = 0;
  /// Cells scored per query (upper bound; the pruning bound can stop the
  /// probe loop earlier once the heap is full).
  size_t nprobe = 8;
  /// K-means iterations for the coarse quantizer.
  int kmeans_iters = 10;
};

/// Per-query probe accounting (flows into taxorec.serve.ivf.* counters).
struct IvfQueryStats {
  uint64_t cells_probed = 0;   // cells actually scored
  uint64_t cells_pruned = 0;   // cut by the score bound with a full heap
  uint64_t cells_skipped = 0;  // left unprobed by the nprobe cap (or empty)
  uint64_t items_scored = 0;   // rows swept by the f32/int8 kernels
};

/// Reusable per-worker query scratch (cell sweep buffer + heap + rerank
/// staging); contents are internal to IvfIndex.
struct IvfScratch {
  std::vector<double> bounds;
  std::vector<uint32_t> order;
  std::vector<double> scores;
  std::vector<double> user;
  std::vector<double> user_tg;
  TopKHeap heap;
  RerankScratch rerank;
};

/// Immutable IVF retrieval structure over one native ScoringSnapshot at a
/// reduced-precision tier (float32 or int8 — the double tier stays an
/// exact-only oracle). Owns a cell-permuted CompactSnapshot; queries never
/// touch the model's rows.
class IvfIndex {
 public:
  /// Builds cells, bounds, and the permuted compact snapshot. Requires a
  /// native kernel and tier != kDouble.
  static IvfIndex Build(const ScoringSnapshot& snapshot, PrecisionTier tier,
                        const IvfOptions& opts);

  /// Top-k for `user` over at most `nprobe` probed cells, ranked exactly
  /// like the exact path (score desc, item id asc; excluded items masked
  /// to -Inf; int8 tier exact-rescored in float32). `exclude` is sorted
  /// ascending. With nprobe >= num_cells() the result equals the exact
  /// scan of the same tier. Non-null `stats` accumulates probe counters;
  /// non-null `rerank_us` accumulates int8-tier rerank wall time.
  void Query(uint32_t user, size_t k, size_t nprobe,
             std::span<const uint32_t> exclude, IvfScratch* scratch,
             std::vector<TopKEntry>* out, IvfQueryStats* stats = nullptr,
             uint64_t* rerank_us = nullptr) const;

  /// Per-cell score upper bounds for `user` (slack included), as used by
  /// the prober — exposed so the pruning-bound property test can check
  /// bound >= max member score directly.
  void CellScoreBounds(uint32_t user, std::vector<double>* out) const;

  size_t num_cells() const { return cell_begin_.size() - 1; }
  size_t num_items() const { return compact_.num_items; }
  PrecisionTier tier() const { return tier_; }
  /// Original item ids of cell c, ascending.
  std::span<const uint32_t> cell_items(size_t c) const {
    return std::span<const uint32_t>(perm_.data() + cell_begin_[c],
                                     cell_begin_[c + 1] - cell_begin_[c]);
  }
  /// The cell-permuted compact snapshot (slot s = item perm[s]).
  const CompactSnapshot& compact() const { return compact_; }

 private:
  IvfIndex() = default;

  /// Widens the user's float32 rows into scratch->user / user_tg and fills
  /// scratch->bounds with per-cell score upper bounds (+slack).
  void ComputeBounds(uint32_t user, IvfScratch* scratch) const;

  PrecisionTier tier_ = PrecisionTier::kFloat32;
  CompactSnapshot compact_;
  /// slot -> original item id; ascending within each cell.
  std::vector<uint32_t> perm_;
  /// original item id -> slot (inverse of perm_; the int8 re-rank gathers
  /// float32 rows of the permuted snapshot by slot, see RerankInt8Head).
  std::vector<uint32_t> slot_of_;
  /// CSR offsets into perm_, size num_cells + 1.
  std::vector<uint32_t> cell_begin_;
  /// Per-cell representative in the kernel's native geometry (primary and,
  /// with a tag channel, tag channel) with max member distance.
  Matrix reps_;
  Matrix reps_tg_;
  std::vector<double> radius_;
  std::vector<double> radius_tg_;
};

}  // namespace taxorec

#endif  // TAXOREC_SERVE_IVF_INDEX_H_
