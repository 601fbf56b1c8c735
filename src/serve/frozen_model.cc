#include "serve/frozen_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "baselines/recommender.h"
#include "common/check.h"
#include "common/fault_injection.h"
#include "common/heap_stats.h"
#include "common/log.h"
#include "common/metrics.h"
#include "hyperbolic/lorentz.h"
#include "hyperbolic/lorentz_avx2.h"
#include "math/simd.h"
#include "math/vec_ops.h"
#include "serve/ivf_index.h"
#include "serve/kernels_f32.h"

#if TAXOREC_HAVE_AVX2_BUILD
#include <immintrin.h>
#endif

namespace taxorec {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// The double tier's two distance metrics, split into the pieces of the
/// live model's per-pair function that DistanceBlock needs:
///   Raw(u, v)      the raw distance, summed in the per-pair function's
///                  order;
///   Raw4           the same for the four item rows at v, v + stride, ...;
///   kLorentz       which chain a lane runs (LanesAvx2);
///   Finish(r)      raw distance -> squared distance;
///   Bound(r)       a lower bound on Finish(r) as Finish rounds it, NaN
///                  for a NaN raw.
/// Finish(Raw(u, v)) is the per-pair function, bit for bit.
struct LorentzMetric {
  static constexpr bool kLorentz = true;
  // beta = -<u,v>_L, as lorentz::Inner sums it: (-u0)*v0, then + ui*vi.
  static double Raw(vec::ConstSpan u, vec::ConstSpan v) {
    return -lorentz::Inner(u, v);
  }
  static void Raw4(const double* u, const double* v, size_t stride,
                   size_t n, double raw[4]) {
    const double* v1 = v + stride;
    const double* v2 = v1 + stride;
    const double* v3 = v2 + stride;
    double a0 = -u[0] * v[0], a1 = -u[0] * v1[0];
    double a2 = -u[0] * v2[0], a3 = -u[0] * v3[0];
    for (size_t i = 1; i < n; ++i) {
      a0 += u[i] * v[i];
      a1 += u[i] * v1[i];
      a2 += u[i] * v2[i];
      a3 += u[i] * v3[i];
    }
    raw[0] = -a0;
    raw[1] = -a1;
    raw[2] = -a2;
    raw[3] = -a3;
  }
  // lorentz::SqDistance: d = acosh(beta clamped to >= 1), then d * d.
  static double Finish(double beta) {
    const double d = std::acosh(beta < 1.0 ? 1.0 : beta);
    return d * d;
  }
  // The chord table's bound, its cushion taken (lorentz.h).
  static double Bound(double beta) {
    return lorentz::SqDistanceLowerBound(beta) *
           lorentz::kSqDistanceBoundCushion;
  }
};

struct EuclidMetric {
  static constexpr bool kLorentz = false;
  // ||u - v||^2, as vec::SqDist sums it.
  static double Raw(vec::ConstSpan u, vec::ConstSpan v) {
    return vec::SqDist(u, v);
  }
  static void Raw4(const double* u, const double* v, size_t stride,
                   size_t n, double raw[4]) {
    const double* v1 = v + stride;
    const double* v2 = v1 + stride;
    const double* v3 = v2 + stride;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d0 = u[i] - v[i], d1 = u[i] - v1[i];
      const double d2 = u[i] - v2[i], d3 = u[i] - v3[i];
      a0 += d0 * d0;
      a1 += d1 * d1;
      a2 += d2 * d2;
      a3 += d3 * d3;
    }
    raw[0] = a0;
    raw[1] = a1;
    raw[2] = a2;
    raw[3] = a3;
  }
  static double Finish(double sq) { return sq; }
  // The raw value already is d^2, so the bound is exact.
  static double Bound(double sq) { return sq; }
};

/// Raw distances of one user against items [begin, end), four item rows
/// at a time, each row in its own chain; the 0-3 rows left over use the
/// per-pair function.
template <typename Metric>
void RowRaws(vec::ConstSpan u, const Matrix& items, size_t begin, size_t end,
             double* out) {
  size_t v = begin;
  for (; v + 4 <= end; v += 4) {
    Metric::Raw4(u.data(), items.row(v).data(), items.cols(), u.size(),
                 out + (v - begin));
  }
  for (; v < end; ++v) out[v - begin] = Metric::Raw(u, items.row(v));
}

#if TAXOREC_HAVE_AVX2_BUILD
// One user per lane. A lane's chain is its user's per-pair function: the
// Lorentz lane starts from (-u_0) * v_0 (the transposed rows hold -u_0)
// and adds u_c * v_c for c = 1 ... n-1 in order; the Euclidean lane starts
// from 0 and adds (u_c - v_c)^2 for c = 0 ... n-1. Multiply and add stay
// separate instructions: the "avx2" target does not enable FMA, so the
// compiler cannot contract them. Every helper carries the target itself
// (GCC 12 does not pass it on to lambdas).
template <bool kLorentz>
__attribute__((target("avx2"))) inline __m256d LaneStart(__m256d u0,
                                                         const double* v) {
  if constexpr (kLorentz) {
    return _mm256_mul_pd(u0, _mm256_broadcast_sd(v));
  } else {
    return _mm256_setzero_pd();
  }
}

template <bool kLorentz>
__attribute__((target("avx2"))) inline __m256d LaneStep(__m256d acc,
                                                        __m256d u,
                                                        const double* v) {
  const __m256d b = _mm256_broadcast_sd(v);
  if constexpr (kLorentz) {
    return _mm256_add_pd(acc, _mm256_mul_pd(u, b));
  } else {
    const __m256d d = _mm256_sub_pd(u, b);
    return _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
}

// The raw distance from a finished chain: beta = -acc for Lorentz.
template <bool kLorentz>
__attribute__((target("avx2"))) inline __m256d LaneRaw(__m256d acc) {
  if constexpr (kLorentz) {
    return _mm256_xor_pd(acc, _mm256_set1_pd(-0.0));
  } else {
    return acc;
  }
}

// Register k holds item k of four for lanes 0-3; stores lane i's four
// items to out[i * count ...] for the first `lanes` lanes.
__attribute__((target("avx2"))) inline void Transpose4Store(
    __m256d a0, __m256d a1, __m256d a2, __m256d a3, size_t lanes,
    size_t count, double* out) {
  const __m256d t0 = _mm256_unpacklo_pd(a0, a1);
  const __m256d t1 = _mm256_unpackhi_pd(a0, a1);
  const __m256d t2 = _mm256_unpacklo_pd(a2, a3);
  const __m256d t3 = _mm256_unpackhi_pd(a2, a3);
  const __m256d rows[4] = {_mm256_permute2f128_pd(t0, t2, 0x20),
                           _mm256_permute2f128_pd(t1, t3, 0x20),
                           _mm256_permute2f128_pd(t0, t2, 0x31),
                           _mm256_permute2f128_pd(t1, t3, 0x31)};
  for (size_t i = 0; i < lanes; ++i) {
    _mm256_storeu_pd(out + i * count, rows[i]);
  }
}

// One user per lane over kRegs registers of four lanes (groups of 2-4
// users: one register, 5-8: two), four items in flight, for the first
// count - count % 4 items. `ut` holds the rows lane-major:
// ut[4 * kRegs * c + i] is lane i's coordinate c. Lane i's raws go to
// out[i * count ...]; lanes >= g are dropped.
template <bool kLorentz, size_t kRegs>
__attribute__((target("avx2"))) void LanesAvx2(const double* ut, size_t n,
                                               const double* v, size_t stride,
                                               size_t count, size_t g,
                                               double* out) {
  constexpr size_t kLanes = 4 * kRegs;
  constexpr size_t c0 = kLorentz ? 1 : 0;
  for (size_t j = 0; j + 4 <= count; j += 4) {
    const double* const vk[4] = {v + j * stride, v + (j + 1) * stride,
                                 v + (j + 2) * stride, v + (j + 3) * stride};
    __m256d acc[kRegs][4];
#pragma GCC unroll 2
    for (size_t r = 0; r < kRegs; ++r) {
      const __m256d u0 = _mm256_loadu_pd(ut + 4 * r);
#pragma GCC unroll 4
      for (size_t k = 0; k < 4; ++k) {
        acc[r][k] = LaneStart<kLorentz>(u0, vk[k]);
      }
    }
    for (size_t c = c0; c < n; ++c) {
#pragma GCC unroll 2
      for (size_t r = 0; r < kRegs; ++r) {
        const __m256d u = _mm256_loadu_pd(ut + kLanes * c + 4 * r);
#pragma GCC unroll 4
        for (size_t k = 0; k < 4; ++k) {
          acc[r][k] = LaneStep<kLorentz>(acc[r][k], u, vk[k] + c);
        }
      }
    }
#pragma GCC unroll 2
    for (size_t r = 0; r < kRegs; ++r) {
      Transpose4Store(LaneRaw<kLorentz>(acc[r][0]),
                      LaneRaw<kLorentz>(acc[r][1]),
                      LaneRaw<kLorentz>(acc[r][2]),
                      LaneRaw<kLorentz>(acc[r][3]),
                      g > 4 * r ? std::min<size_t>(g - 4 * r, 4) : 0, count,
                      out + 4 * r * count + j);
    }
  }
}

/// Raw distances of the group's rows of `users_m` against items
/// [begin, begin + count) of `items`, one user per lane, into one row of
/// `out` per user; the 0-3 items left over run RowRaws per user. `ut`
/// receives the rows lane-major (kScoreGroup * cols doubles); idle lanes
/// hold zeros and are never stored.
template <typename Metric>
void LaneRaws(const Matrix& users_m, std::span<const uint32_t> users,
              const Matrix& items, size_t begin, size_t count, double* out,
              double* ut) {
  const size_t g = users.size(), n = users_m.cols();
  const size_t lanes = g <= 4 ? 4 : 8;
  std::fill(ut, ut + lanes * n, 0.0);
  for (size_t i = 0; i < g; ++i) {
    const auto u = users_m.row(users[i]);
    for (size_t c = 0; c < n; ++c) ut[c * lanes + i] = u[c];
    if (Metric::kLorentz) ut[i] = -u[0];
  }
  const double* v = items.row(begin).data();
  if (lanes == 4) {
    LanesAvx2<Metric::kLorentz, 1>(ut, n, v, items.cols(), count, g, out);
  } else {
    LanesAvx2<Metric::kLorentz, 2>(ut, n, v, items.cols(), count, g, out);
  }
  const size_t done = count - count % 4;
  for (size_t i = 0; done < count && i < g; ++i) {
    RowRaws<Metric>(users_m.row(users[i]), items, begin + done,
                    begin + count, out + i * count + done);
  }
}
#endif  // TAXOREC_HAVE_AVX2_BUILD

/// The prune test of one item: the bound on its score's negation,
/// fl(Bound(raw) + a * Bound(raw_tg)) with the tag term only when kTags,
/// exceeds t = -cutoff. Each Bound is at most its Finish and rounding is
/// monotone, so the bound is at most the score's own sum, and the test
/// holds only for items that score below the cutoff. A NaN raw makes the
/// bound NaN and the test false; a -Inf cutoff prunes nothing.
template <typename Metric, bool kTags>
bool Prunes(double raw, double raw_tg, double a, double t) {
  if constexpr (kTags) {
    return Metric::Bound(raw) + a * Metric::Bound(raw_tg) > t;
  } else {
    return Metric::Bound(raw) > t;
  }
}

/// The score of Eq. 17 from one item's raws: -(Finish(raw) + a *
/// Finish(raw_tg)), the tag term only when kTags.
template <typename Metric, bool kTags>
double Score(double raw, double raw_tg, double a) {
  if constexpr (kTags) {
    return -(Metric::Finish(raw) + a * Metric::Finish(raw_tg));
  } else {
    return -Metric::Finish(raw);
  }
}

#if TAXOREC_HAVE_AVX2_BUILD
/// LorentzMetric's prune test and finish on items [0, count - count % 4)
/// of one user's row, the test four items at a time: lane by lane the
/// scalar test's operations in its order, so it prunes the same items.
/// Four pruned items take one store; the others are finished one by one.
template <bool kTags>
__attribute__((target("avx2"))) size_t FinishLorentzAvx2(double* row,
                                                        const double* tg,
                                                        double a, double t,
                                                        size_t count) {
  const lorentz::SqDistanceChords& chords = lorentz::SqDistanceChordTable();
  const __m256d cushion = _mm256_set1_pd(lorentz::kSqDistanceBoundCushion);
  const __m256d av = _mm256_set1_pd(a), tv = _mm256_set1_pd(t);
  size_t pruned = 0;
  for (size_t j = 0; j + 4 <= count; j += 4) {
    __m256d bound = _mm256_mul_pd(
        lorentz::SqDistanceLowerBoundAvx2(chords, _mm256_loadu_pd(row + j)),
        cushion);
    if constexpr (kTags) {
      const __m256d tag = _mm256_mul_pd(
          lorentz::SqDistanceLowerBoundAvx2(chords, _mm256_loadu_pd(tg + j)),
          cushion);
      bound = _mm256_add_pd(bound, _mm256_mul_pd(av, tag));
    }
    // Ordered compare: a NaN bound prunes nothing.
    const int mask = _mm256_movemask_pd(_mm256_cmp_pd(bound, tv, _CMP_GT_OQ));
    pruned += static_cast<size_t>(std::popcount(static_cast<unsigned>(mask)));
    if (mask == 0xF) {
      _mm256_storeu_pd(row + j, _mm256_set1_pd(kNegInf));
      continue;
    }
    for (size_t l = j; l < j + 4; ++l) {
      if (mask >> (l - j) & 1) {
        row[l] = kNegInf;
      } else {
        row[l] = Score<LorentzMetric, kTags>(row[l], kTags ? tg[l] : 0.0, a);
      }
    }
  }
  return pruned;
}
#endif  // TAXOREC_HAVE_AVX2_BUILD

/// Finishes one user's row of raws in place against its cutoff: an item
/// that Prunes is written as -Inf without its Finish calls, every other as
/// its Score. `tg` holds the tag-channel raws when kTags. On the AVX2
/// level the Lorentz test runs four items at a time (FinishLorentzAvx2).
/// Returns how many items it pruned.
template <typename Metric, bool kTags>
size_t FinishRow(double* row, const double* tg, double a, double cutoff,
                 size_t count, bool avx2) {
  const double t = -cutoff;
  size_t pruned = 0, j = 0;
#if TAXOREC_HAVE_AVX2_BUILD
  if (Metric::kLorentz && avx2) {
    pruned = FinishLorentzAvx2<kTags>(row, tg, a, t, count);
    j = count - count % 4;
  }
#endif
  for (; j < count; ++j) {
    const double raw_tg = kTags ? tg[j] : 0.0;
    if (Prunes<Metric, kTags>(row[j], raw_tg, a, t)) {
      row[j] = kNegInf;
      ++pruned;
    } else {
      row[j] = Score<Metric, kTags>(row[j], raw_tg, a);
    }
  }
  return pruned;
}

/// Scores items [begin, end) for the group `users` with `Metric`, plus
/// alpha_u times the metric on the tag channel (Eq. 17), into one row of
/// `dst` per user, and returns how many items it pruned below `cutoffs`.
/// First the raw distances of both channels: a group of two or more on
/// the AVX2 backend runs one user per lane (LaneRaws); a group of one,
/// and the portable backend, run RowRaws per user. Either way every raw
/// is the per-pair function's, bit for bit, so a row never depends on
/// the group or the backend. Then each user's row is finished alone
/// (FinishRow), each item against a lower bound on its own score
/// (DESIGN.md §10). `work` holds ScoreBlockScratch's doubles: the
/// tag-channel raws, then the lane-major rows.
template <typename Metric>
size_t DistanceBlock(const ScoringSnapshot& s, std::span<const uint32_t> users,
                     size_t begin, size_t end, const double* cutoffs,
                     double* dst, double* work) {
  const size_t g = users.size(), count = end - begin;
  double alpha[kScoreGroup];
  bool tags = false;
  for (size_t i = 0; i < g; ++i) {
    alpha[i] = s.has_tag_channel() ? s.alpha[users[i]] : 0.0;
    tags = tags || alpha[i] > 0.0;
  }
  double* const tag_raws = work;
  const bool avx2 = simd::Avx2Enabled();
  const bool lanes = g > 1 && avx2;
#if TAXOREC_HAVE_AVX2_BUILD
  if (lanes) {
    double* const ut = work + (tags ? g * count : 0);
    LaneRaws<Metric>(*s.users, users, *s.items, begin, count, dst, ut);
    if (tags) {
      LaneRaws<Metric>(*s.users_tg, users, *s.items_tg, begin, count,
                       tag_raws, ut);
    }
  }
#endif
  if (!lanes) {
    for (size_t i = 0; i < g; ++i) {
      RowRaws<Metric>(s.users->row(users[i]), *s.items, begin, end,
                      dst + i * count);
      if (alpha[i] > 0.0) {
        RowRaws<Metric>(s.users_tg->row(users[i]), *s.items_tg, begin, end,
                        tag_raws + i * count);
      }
    }
  }
  size_t pruned = 0;
  for (size_t i = 0; i < g; ++i) {
    double* const row = dst + i * count;
    pruned += alpha[i] > 0.0
                  ? FinishRow<Metric, true>(row, tag_raws + i * count,
                                            alpha[i], cutoffs[i], count, avx2)
                  : FinishRow<Metric, false>(row, nullptr, 0.0, cutoffs[i],
                                             count, avx2);
  }
  return pruned;
}

/// Checks a native view's shapes against `num_users` x `num_items`. A tag
/// channel rides only on a distance kernel; without one (`alpha` empty)
/// the tag rows must be absent too, so a model that forgets `alpha` fails
/// here instead of scoring without tags.
void ValidateNative(const ScoringSnapshot& s, size_t num_users,
                    size_t num_items) {
  TAXOREC_CHECK_MSG(s.users != nullptr && s.users->rows() == num_users &&
                        s.items != nullptr && s.items->rows() == num_items,
                    "scoring rows do not match the split's shape");
  TAXOREC_CHECK(s.users->cols() == s.items->cols());
  if (s.has_tag_channel()) {
    TAXOREC_CHECK_MSG(s.kernel != ScoreKernel::kDot,
                      "a tag channel needs a distance kernel");
    TAXOREC_CHECK(s.users_tg != nullptr && s.users_tg->rows() == num_users);
    TAXOREC_CHECK(s.items_tg != nullptr && s.items_tg->rows() == num_items);
    TAXOREC_CHECK(s.users_tg->cols() == s.items_tg->cols());
    TAXOREC_CHECK(s.alpha.size() == num_users);
  } else {
    TAXOREC_CHECK_MSG(s.users_tg == nullptr && s.items_tg == nullptr,
                      "tag-channel rows without a per-user alpha");
  }
}

size_t MatrixBytes(const Matrix* m) {
  return m == nullptr ? 0 : m->rows() * m->cols() * sizeof(double);
}

}  // namespace

FrozenModel::FrozenModel(ScoringSnapshot view, PrecisionTier tier)
    : FrozenModel(view, view.users == nullptr ? 0 : view.users->rows(),
                  view.items == nullptr ? 0 : view.items->rows(), tier) {}

FrozenModel::FrozenModel(ScoringSnapshot view, size_t num_users,
                         size_t num_items, PrecisionTier tier)
    : snap_(view), num_users_(num_users), num_items_(num_items), tier_(tier) {
  static const int kHeapTag = RegisterHeapSubsystem("serve.snapshot");
  HeapScope heap_scope(kHeapTag);
  TAXOREC_CHECK(num_users_ > 0 && num_items_ > 0);
  if (snap_.kernel == ScoreKernel::kVirtual) {
    TAXOREC_CHECK(snap_.live != nullptr);
    if (tier_ != PrecisionTier::kDouble) {
      TAXOREC_LOG(WARN) << "kVirtual view cannot serve tier "
                        << PrecisionTierName(tier_)
                        << "; falling back to double";
      tier_ = PrecisionTier::kDouble;
    }
    return;
  }
  ValidateNative(snap_, num_users_, num_items_);
  if (tier_ != PrecisionTier::kDouble) {
    // A failed compact-snapshot build (serve-snapshot-load fault site) is
    // not fatal: the model's own rows are always there, so the model
    // degrades to the bit-exact tier instead of taking the serving path
    // down.
    if (TAXOREC_FAULT(faults::kServeSnapshotLoad, -1)) {
      static Counter* failures = MetricsRegistry::Instance().GetCounter(
          "taxorec.serve.snapshot_load_failures");
      failures->Increment();
      TAXOREC_LOG(ERROR) << "compact snapshot build failed; falling back to "
                            "the double tier"
                         << Kv("requested_tier", PrecisionTierName(tier_));
      tier_ = PrecisionTier::kDouble;
      return;
    }
    compact_ = std::make_unique<CompactSnapshot>(CompactSnapshot::Build(
        snap_, /*with_int8=*/tier_ == PrecisionTier::kInt8));
  }
}

FrozenModel::~FrozenModel() = default;
FrozenModel::FrozenModel(FrozenModel&&) noexcept = default;
FrozenModel& FrozenModel::operator=(FrozenModel&&) noexcept = default;

bool FrozenModel::BuildIvf(const IvfOptions& opts) {
  if (!native()) {
    TAXOREC_LOG(WARN) << "ivf retrieval requires a native kernel; serving "
                         "exact";
    return false;
  }
  if (tier_ == PrecisionTier::kDouble) {
    TAXOREC_LOG(WARN) << "ivf retrieval requires a reduced-precision tier "
                         "(float32/int8); the double tier serves exact";
    return false;
  }
  ivf_ = std::make_unique<IvfIndex>(IvfIndex::Build(snap_, tier_, opts));
  return true;
}

FrozenModel FrozenModel::Freeze(const Recommender& model,
                                const DataSplit& split, PrecisionTier tier) {
  return FrozenModel(model.ExportScoringSnapshot(), split.num_users,
                     split.num_items, tier);
}

size_t FrozenModel::snapshot_bytes() const {
  switch (tier_) {
    case PrecisionTier::kDouble:
      return MatrixBytes(snap_.users) + MatrixBytes(snap_.items) +
             MatrixBytes(snap_.users_tg) + MatrixBytes(snap_.items_tg) +
             snap_.alpha.size_bytes();
    case PrecisionTier::kFloat32:
      return compact_->float32_bytes();
    case PrecisionTier::kInt8:
      return compact_->int8_bytes() + compact_->float32_bytes();
  }
  return 0;
}

void FrozenModel::ScoreAll(uint32_t user, std::span<double> out) const {
  TAXOREC_CHECK(user < num_users_);
  TAXOREC_CHECK(out.size() == num_items_);
  if (snap_.kernel == ScoreKernel::kVirtual) {
    snap_.live->ScoreItems(user, out);
    return;
  }
  std::vector<double> scratch(ScoreBlockScratch(1, num_items_));
  ScoreBlock({&user, 1}, 0, num_items_, out, {}, scratch);
}

size_t FrozenModel::ScoreBlockScratch(size_t group, size_t items) const {
  if (tier_ != PrecisionTier::kDouble || snap_.kernel == ScoreKernel::kDot) {
    return 0;
  }
  const bool tags = snap_.has_tag_channel();
  const size_t cols =
      std::max(snap_.users->cols(), tags ? snap_.users_tg->cols() : 0);
  return (tags ? group * items : 0) + (group > 1 ? kScoreGroup * cols : 0);
}

size_t FrozenModel::ScoreBlock(std::span<const uint32_t> users, size_t begin,
                               size_t end, std::span<double> out,
                               std::span<const double> cutoffs,
                               std::span<double> scratch) const {
  TAXOREC_CHECK_MSG(native(), "ScoreBlock requires a native kernel");
  const size_t g = users.size(), count = end - begin;
  TAXOREC_CHECK(g >= 1 && g <= kScoreGroup);
  TAXOREC_DCHECK(begin <= end && end <= num_items_);
  TAXOREC_DCHECK(out.size() == g * count);
  TAXOREC_DCHECK(cutoffs.empty() || cutoffs.size() == g);
  TAXOREC_DCHECK(std::all_of(users.begin(), users.end(), [&](uint32_t u) {
    return u < num_users_;
  }));
  TAXOREC_CHECK(scratch.size() >= ScoreBlockScratch(g, count));
  if (count == 0) return 0;
  switch (tier_) {
    case PrecisionTier::kDouble:
      break;
    case PrecisionTier::kFloat32:
      for (size_t i = 0; i < g; ++i) {
        f32::ScoreRowRangeF32(*compact_, users[i], begin, end,
                              out.data() + i * count);
      }
      return 0;
    case PrecisionTier::kInt8:
      for (size_t i = 0; i < g; ++i) {
        f32::ScoreRowRangeInt8(*compact_, users[i], begin, end,
                               out.data() + i * count);
      }
      return 0;
  }
  if (snap_.kernel == ScoreKernel::kDot) {
    for (size_t i = 0; i < g; ++i) {
      const auto u = snap_.users->row(users[i]);
      double* const dst = out.data() + i * count;
      for (size_t v = begin; v < end; ++v) {
        dst[v - begin] = vec::Dot(u, snap_.items->row(v));
      }
    }
    return 0;
  }
  double cut[kScoreGroup];
  for (size_t i = 0; i < g; ++i) {
    cut[i] = cutoffs.empty() ? kNegInf : cutoffs[i];
  }
  return snap_.kernel == ScoreKernel::kNegSqDist
             ? DistanceBlock<EuclidMetric>(snap_, users, begin, end, cut,
                                           out.data(), scratch.data())
             : DistanceBlock<LorentzMetric>(snap_, users, begin, end, cut,
                                            out.data(), scratch.data());
}

}  // namespace taxorec
