#include "serve/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "hyperbolic/lorentz.h"
#include "hyperbolic/maps.h"
#include "hyperbolic/poincare.h"
#include "math/vec_ops.h"
#include "serve/kernels_f32.h"
#include "taxonomy/poincare_kmeans.h"

namespace taxorec {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
// Catalogues larger than this train the quantizer on a deterministic
// stride-sample of this many items; every item is still assigned to its
// nearest centroid afterwards.
constexpr size_t kMaxTrainPoints = 65536;
// Seed for the quantizer's k-means++ draw.
constexpr uint64_t kQuantizerSeed = 1234;
// Slack added to every cell score bound, covering the gap between the
// double-precision bound arithmetic and the float32 kernel scores it must
// dominate (DESIGN.md §15 derives why a small cushion suffices at serving
// magnitudes).
constexpr double kBoundSlack = 1e-3;

/// Maps every item row into the Poincaré ball for the coarse quantizer:
/// Lorentz rows through the direct hyperboloid->ball map, Euclidean rows
/// lifted onto the hyperboloid first (the lift is injective and radially
/// monotone, so Euclidean neighborhoods stay neighborhoods in the ball).
Matrix BallPoints(const ScoringSnapshot& snapshot) {
  const Matrix& items = *snapshot.items;
  const size_t n = items.rows();
  const bool lorentz = snapshot.kernel == ScoreKernel::kNegLorentzSqDist;
  const size_t ball_dim = lorentz ? items.cols() - 1 : items.cols();
  Matrix ball(n, ball_dim);
  ParallelFor(0, n, /*grain=*/1024, [&](size_t i0, size_t i1) {
    std::vector<double> lifted(items.cols() + 1);
    for (size_t i = i0; i < i1; ++i) {
      if (lorentz) {
        hyper::LorentzToPoincare(items.row(i), ball.row(i));
      } else {
        lorentz::LiftFromSpatial(items.row(i), vec::Span(lifted));
        hyper::LorentzToPoincare(vec::ConstSpan(lifted), ball.row(i));
      }
      poincare::ProjectToBall(ball.row(i));
    }
  });
  return ball;
}

/// 1 - |x|^2 with a positive floor (points are ProjectToBall-clamped, so
/// the floor only guards accumulated rounding).
double ConformalAlpha(vec::ConstSpan x) {
  const double a = 1.0 - vec::SqNorm(x);
  return a > 1e-12 ? a : 1e-12;
}

/// Assigns every ball point to its nearest centroid. The Poincaré distance
/// acosh(1 + 2 delta) is monotone in delta = |x-c|^2 / (alpha_x alpha_c),
/// so the scan compares delta directly — no transcendentals on the
/// million-item bulk pass.
std::vector<uint32_t> AssignAll(const Matrix& ball, const Matrix& centroids) {
  const size_t n = ball.rows();
  const size_t c_count = centroids.rows();
  std::vector<double> inv_alpha_c(c_count);
  for (size_t c = 0; c < c_count; ++c) {
    inv_alpha_c[c] = 1.0 / ConformalAlpha(centroids.row(c));
  }
  std::vector<uint32_t> assign(n, 0);
  ParallelFor(0, n, /*grain=*/256, [&](size_t i0, size_t i1) {
    for (size_t i = i0; i < i1; ++i) {
      const auto x = ball.row(i);
      const double inv_alpha_x = 1.0 / ConformalAlpha(x);
      double best = std::numeric_limits<double>::infinity();
      uint32_t best_c = 0;
      for (size_t c = 0; c < c_count; ++c) {
        const double delta =
            vec::SqDist(x, centroids.row(c)) * inv_alpha_x * inv_alpha_c[c];
        if (delta < best) {
          best = delta;
          best_c = static_cast<uint32_t>(c);
        }
      }
      assign[i] = best_c;
    }
  });
  return assign;
}

/// Cell representative + max member metric distance in the kernel's native
/// geometry. Lorentz channels use the normalized-sum centroid
/// c = s / sqrt(-<s,s>_L) (the Lorentz centroid minimizing the summed
/// squared distance); Euclidean channels use the arithmetic mean.
void CellRepresentative(const Matrix& rows, std::span<const uint32_t> members,
                        bool lorentz, vec::Span rep, double* radius) {
  *radius = 0.0;
  if (members.empty()) {
    vec::Zero(rep);
    return;
  }
  std::vector<double> acc(rows.cols(), 0.0);
  for (uint32_t m : members) {
    vec::Axpy(1.0, rows.row(m), vec::Span(acc));
  }
  if (lorentz) {
    const double inner = lorentz::Inner(vec::ConstSpan(acc), vec::ConstSpan(acc));
    if (inner < -1e-30) {
      vec::ScaleTo(vec::ConstSpan(acc), 1.0 / std::sqrt(-inner), rep);
    } else {
      // A degenerate sum (cannot happen for future-pointing timelike
      // members, but guard the arithmetic): fall back to the first member.
      vec::Copy(rows.row(members.front()), rep);
    }
    for (uint32_t m : members) {
      const double d = lorentz::Distance(rep, rows.row(m));
      if (d > *radius) *radius = d;
    }
  } else {
    vec::ScaleTo(vec::ConstSpan(acc), 1.0 / static_cast<double>(members.size()),
                 rep);
    for (uint32_t m : members) {
      const double d = std::sqrt(vec::SqDist(rep, rows.row(m)));
      if (d > *radius) *radius = d;
    }
  }
}

/// Masks cell members present in the sorted exclusion list to -Inf.
/// `cell_ids` is ascending, so one lower_bound then a lockstep walk covers
/// the cell in O(cell + log |exclude|).
void MaskExcludedInCell(std::span<const uint32_t> exclude,
                        std::span<const uint32_t> cell_ids,
                        std::span<double> scores) {
  if (exclude.empty() || cell_ids.empty()) return;
  auto it = std::lower_bound(exclude.begin(), exclude.end(), cell_ids.front());
  size_t j = 0;
  while (it != exclude.end() && j < cell_ids.size()) {
    if (*it < cell_ids[j]) {
      ++it;
    } else if (*it > cell_ids[j]) {
      ++j;
    } else {
      scores[j] = kNegInf;
      ++it;
      ++j;
    }
  }
}

}  // namespace

const char* RetrievalModeName(RetrievalMode mode) {
  switch (mode) {
    case RetrievalMode::kExact:
      return "exact";
    case RetrievalMode::kIvf:
      return "ivf";
  }
  return "unknown";
}

bool ParseRetrievalMode(const std::string& text, RetrievalMode* mode) {
  if (text == "exact") {
    *mode = RetrievalMode::kExact;
  } else if (text == "ivf") {
    *mode = RetrievalMode::kIvf;
  } else {
    return false;
  }
  return true;
}

IvfIndex IvfIndex::Build(const ScoringSnapshot& snapshot, PrecisionTier tier,
                         const IvfOptions& opts) {
  TAXOREC_CHECK_MSG(snapshot.kernel != ScoreKernel::kVirtual,
                    "IVF requires a native kernel");
  TAXOREC_CHECK_MSG(tier != PrecisionTier::kDouble,
                    "IVF serves the reduced-precision tiers; the double tier "
                    "stays the exact oracle");
  TraceSpan span("ivf_build");
  const size_t n = snapshot.items->rows();
  TAXOREC_CHECK(n > 0);

  IvfIndex index;
  index.tier_ = tier;

  size_t c_count = opts.num_cells != 0
                       ? opts.num_cells
                       : static_cast<size_t>(std::lround(std::sqrt(
                             static_cast<double>(n))));
  c_count = std::clamp<size_t>(c_count, 1, n);

  // Coarse quantizer: Poincaré k-means on (a stride-sample of) the mapped
  // catalogue, then a bulk nearest-centroid pass over every item.
  const Matrix ball = BallPoints(snapshot);
  std::vector<uint32_t> train;
  const size_t step =
      n > kMaxTrainPoints ? (n + kMaxTrainPoints - 1) / kMaxTrainPoints : 1;
  for (size_t i = 0; i < n; i += step) {
    train.push_back(static_cast<uint32_t>(i));
  }
  if (train.size() < c_count) {
    train.resize(n);
    std::iota(train.begin(), train.end(), 0u);
  }
  Rng rng(kQuantizerSeed);
  KMeansOptions kopts;
  kopts.max_iters = opts.kmeans_iters;
  const KMeansResult kmeans = PoincareKMeans(ball, train,
                                             static_cast<int>(c_count), &rng,
                                             kopts);
  const std::vector<uint32_t> assign = AssignAll(ball, kmeans.centroids);

  // Cell layout: CSR offsets + slot permutation, ascending item id within
  // each cell (the scan order preserves it).
  index.cell_begin_.assign(c_count + 1, 0);
  for (uint32_t a : assign) ++index.cell_begin_[a + 1];
  for (size_t c = 0; c < c_count; ++c) {
    index.cell_begin_[c + 1] += index.cell_begin_[c];
  }
  index.perm_.resize(n);
  {
    std::vector<uint32_t> cursor(index.cell_begin_.begin(),
                                 index.cell_begin_.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      index.perm_[cursor[assign[i]]++] = static_cast<uint32_t>(i);
    }
  }
  index.slot_of_.resize(n);
  for (size_t s = 0; s < n; ++s) {
    index.slot_of_[index.perm_[s]] = static_cast<uint32_t>(s);
  }

  // Native-geometry representatives and radii per channel, from the
  // double-precision rows (the float32 rows differ by narrowing rounding,
  // covered by the query-time slack).
  const bool lorentz = snapshot.kernel == ScoreKernel::kNegLorentzSqDist;
  const bool tags = snapshot.has_tag_channel();
  index.reps_ = Matrix(c_count, snapshot.items->cols());
  index.radius_.assign(c_count, 0.0);
  if (tags) {
    index.reps_tg_ = Matrix(c_count, snapshot.items_tg->cols());
    index.radius_tg_.assign(c_count, 0.0);
  }
  ParallelFor(0, c_count, /*grain=*/1, [&](size_t c0, size_t c1) {
    for (size_t c = c0; c < c1; ++c) {
      const auto members = index.cell_items(c);
      CellRepresentative(*snapshot.items, members, lorentz, index.reps_.row(c),
                         &index.radius_[c]);
      if (tags) {
        CellRepresentative(*snapshot.items_tg, members, lorentz,
                           index.reps_tg_.row(c), &index.radius_tg_[c]);
      }
    }
  });

  index.compact_ = CompactSnapshot::Build(
      snapshot, /*with_int8=*/tier == PrecisionTier::kInt8, index.perm_);

  static Counter* builds =
      MetricsRegistry::Instance().GetCounter("taxorec.serve.ivf.builds");
  builds->Increment();
  TAXOREC_LOG(INFO) << "ivf index built" << Kv("items", n)
                    << Kv("cells", c_count)
                    << Kv("train_points", train.size())
                    << Kv("kmeans_iters", kmeans.iterations)
                    << Kv("tier", PrecisionTierName(tier));
  return index;
}

void IvfIndex::ComputeBounds(uint32_t user, IvfScratch* scratch) const {
  const size_t c_count = num_cells();
  scratch->bounds.assign(c_count, kNegInf);

  // Widen the user's float32 rows: bound arithmetic runs in double on the
  // same values the kernels consume, so the only gap left for the slack is
  // float32 accumulation rounding inside the kernels.
  const CompactChannel& uch = compact_.users;
  scratch->user.resize(uch.dim);
  for (size_t i = 0; i < uch.dim; ++i) {
    scratch->user[i] = static_cast<double>(uch.row(user)[i]);
  }
  const vec::ConstSpan u(scratch->user);
  double alpha = 0.0;
  if (compact_.has_tag_channel()) {
    const CompactChannel& tch = compact_.users_tg;
    scratch->user_tg.resize(tch.dim);
    for (size_t i = 0; i < tch.dim; ++i) {
      scratch->user_tg[i] = static_cast<double>(tch.row(user)[i]);
    }
    alpha = static_cast<double>(compact_.alpha[user]);
  }
  const vec::ConstSpan u_tg(scratch->user_tg);

  const bool dot = compact_.kernel == ScoreKernel::kDot;
  const bool lorentz = compact_.kernel == ScoreKernel::kNegLorentzSqDist;
  // Per-channel lower bound on the member distance: for members x of cell
  // (c, r), d(u, x) >= max(0, d(u, c) - r) by the triangle inequality (the
  // Lorentz d_H = acosh(-<.,.>_L) is the geodesic metric), so
  // -d(u, x)^2 <= -gap^2.
  const auto gap = [lorentz](vec::ConstSpan x, vec::ConstSpan rep, double r) {
    const double d =
        lorentz ? lorentz::Distance(x, rep) : std::sqrt(vec::SqDist(x, rep));
    return std::max(0.0, d - r);
  };
  const double u_norm = dot ? vec::Norm(u) : 0.0;
  for (size_t c = 0; c < c_count; ++c) {
    if (cell_begin_[c + 1] == cell_begin_[c]) continue;  // stays -Inf
    double bound = 0.0;
    if (dot) {
      // <u,x> = <u,c> + <u,x-c> <= <u,c> + |u| |x-c| (Cauchy-Schwarz),
      // |x-c| <= r over the cell.
      bound = vec::Dot(u, reps_.row(c)) + u_norm * radius_[c];
    } else {
      const double g = gap(u, reps_.row(c), radius_[c]);
      bound = -g * g;
      if (alpha > 0.0) {
        const double gt = gap(u_tg, reps_tg_.row(c), radius_tg_[c]);
        bound -= alpha * gt * gt;
      }
    }
    // Absolute-plus-relative slack dominating the double-vs-float32
    // arithmetic gap at any score magnitude.
    scratch->bounds[c] = bound + kBoundSlack * (1.0 + std::abs(bound));
  }
}

void IvfIndex::CellScoreBounds(uint32_t user, std::vector<double>* out) const {
  IvfScratch scratch;
  ComputeBounds(user, &scratch);
  *out = scratch.bounds;
}

void IvfIndex::Query(uint32_t user, size_t k, size_t nprobe,
                     std::span<const uint32_t> exclude, IvfScratch* scratch,
                     std::vector<TopKEntry>* out, IvfQueryStats* stats,
                     uint64_t* rerank_us) const {
  TAXOREC_DCHECK(user < compact_.num_users);
  TraceSpan span("ivf_query");
  const size_t c_count = num_cells();
  const bool int8_tier = tier_ == PrecisionTier::kInt8;
  scratch->heap.Reset(CoarseK(tier_, k, compact_.num_items));

  ComputeBounds(user, scratch);
  scratch->order.resize(c_count);
  std::iota(scratch->order.begin(), scratch->order.end(), 0u);
  std::sort(scratch->order.begin(), scratch->order.end(),
            [&](uint32_t a, uint32_t b) {
              if (scratch->bounds[a] != scratch->bounds[b]) {
                return scratch->bounds[a] > scratch->bounds[b];
              }
              return a < b;
            });

  IvfQueryStats local;
  size_t next = 0;
  for (; next < c_count; ++next) {
    const uint32_t c = scratch->order[next];
    const size_t begin = cell_begin_[c];
    const size_t end = cell_begin_[c + 1];
    if (begin == end) continue;  // empty cells carry -Inf bounds, sort last
    if (local.cells_probed >= nprobe) break;
    // The pruning bound: with a full heap, a cell whose score upper bound
    // ranks strictly below the current worst cannot contribute, and the
    // descending probe order makes every later bound no better — stop.
    // Int8 coarse scores live on a different (quantized) scale than the
    // float32 bounds, so the int8 tier probes by order alone and relies on
    // the nprobe cap plus the float32 re-rank.
    if (!int8_tier && scratch->heap.full() &&
        scratch->bounds[c] < scratch->heap.worst().score) {
      break;
    }
    scratch->scores.resize(end - begin);
    if (int8_tier) {
      f32::ScoreRowRangeInt8(compact_, user, begin, end,
                             scratch->scores.data());
    } else {
      f32::ScoreRowRangeF32(compact_, user, begin, end,
                            scratch->scores.data());
    }
    const std::span<const uint32_t> cell_ids(perm_.data() + begin, end - begin);
    MaskExcludedInCell(exclude, cell_ids, std::span<double>(scratch->scores));
    for (size_t j = 0; j < cell_ids.size(); ++j) {
      scratch->heap.Offer(cell_ids[j], SanitizeScore(scratch->scores[j]));
    }
    ++local.cells_probed;
    local.items_scored += end - begin;
  }
  // Remaining cells: pruned if the bound cut the loop, skipped otherwise
  // (nprobe cap or empty).
  for (; next < c_count; ++next) {
    const uint32_t c = scratch->order[next];
    if (cell_begin_[c + 1] == cell_begin_[c]) {
      ++local.cells_skipped;
    } else if (!int8_tier && scratch->heap.full() &&
               scratch->bounds[c] < scratch->heap.worst().score) {
      ++local.cells_pruned;
    } else {
      ++local.cells_skipped;
    }
  }

  scratch->heap.Finish(out);
  if (int8_tier) {
    RerankInt8Head(compact_, slot_of_, user, k, &scratch->rerank, out,
                   rerank_us);
  }

  if (stats != nullptr) {
    stats->cells_probed += local.cells_probed;
    stats->cells_pruned += local.cells_pruned;
    stats->cells_skipped += local.cells_skipped;
    stats->items_scored += local.items_scored;
  }
}

}  // namespace taxorec
