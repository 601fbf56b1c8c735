#include "serve/frozen_model.h"

#include <cmath>
#include <limits>

#include "baselines/recommender.h"
#include "common/check.h"
#include "common/fault_injection.h"
#include "common/heap_stats.h"
#include "common/log.h"
#include "common/metrics.h"
#include "hyperbolic/lorentz.h"
#include "math/vec_ops.h"
#include "serve/ivf_index.h"
#include "serve/kernels_f32.h"

namespace taxorec {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// The double tier's two distance metrics, split into the pieces of the
/// live model's per-pair function that DistanceRowRange needs:
///   Raw(u, v)   the raw distance, summed in the per-pair function's order;
///   Raw4        the same for the four item rows at v, v + stride, ...;
///   Finish(r)   raw distance -> squared distance;
///   Bound(t)    a raw distance above it has Finish(raw) > t.
/// Finish(Raw(u, v)) is the per-pair function, bit for bit.
struct LorentzMetric {
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
  // d^2 > t <=> beta > cosh(sqrt(t)). The 1e-9 relative cushion moves d by
  // >= 1e-9 (even at beta = 1e308 that is 3e-12 of d^2), far above the
  // few-ulp rounding of sqrt, cosh, acosh and d * d. t < 0 gives NaN.
  static double Bound(double t) {
    return std::cosh(std::sqrt(t)) * (1.0 + 1e-9);
  }
};

struct EuclidMetric {
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
  // The raw value already is the squared distance.
  static double Bound(double t) { return t; }
};

/// Scores items [begin, end) for one user with `Metric`, plus alpha_u times
/// the metric on the tag channel (Eq. 17), and returns how many items it
/// pruned. The score is -(d^2 + a * d_tg^2) with the tag term added only
/// when a > 0, so it is at most -Finish(raw): an item whose raw distance
/// exceeds Bound(-cutoff) scores below `cutoff` and is written as -Inf
/// without its acosh or its tag channel. A NaN raw distance or bound
/// compares false, so it prunes nothing. Raw distances accumulate four item
/// rows at a time, each row in its own chain (DESIGN.md §10).
template <typename Metric>
size_t DistanceRowRange(const ScoringSnapshot& s, uint32_t user, size_t begin,
                        size_t end, double cutoff, double* dst) {
  const auto u = s.users.row(user);
  const double a = s.has_tag_channel() ? s.alpha[user] : 0.0;
  const vec::ConstSpan u_tg =
      a > 0.0 ? s.users_tg.row(user) : vec::ConstSpan();
  const double bound = Metric::Bound(-cutoff);
  size_t pruned = 0;
  const auto score = [&](size_t v, double raw) {
    if (raw > bound) {
      dst[v - begin] = kNegInf;
      ++pruned;
    } else if (a > 0.0) {
      dst[v - begin] =
          -(Metric::Finish(raw) +
            a * Metric::Finish(Metric::Raw(u_tg, s.items_tg.row(v))));
    } else {
      dst[v - begin] = -Metric::Finish(raw);
    }
  };
  size_t v = begin;
  for (; v + 4 <= end; v += 4) {
    double raw[4];
    Metric::Raw4(u.data(), s.items.row(v).data(), s.items.cols(), u.size(),
                 raw);
    for (size_t j = 0; j < 4; ++j) score(v + j, raw[j]);
  }
  for (; v < end; ++v) score(v, Metric::Raw(u, s.items.row(v)));
  return pruned;
}

/// Scores items [begin, end) for one user into `dst` with the kernel
/// dispatched once and the user's rows hoisted out of the item loop — the
/// exact per-pair arithmetic of the exporting model's ScoreItems (the same
/// operations in the same order on copies of the same parameters), so
/// every score it writes is bit-for-bit equal to the live model's. Returns
/// how many items the distance kernels pruned below `cutoff`.
size_t ScoreRowRange(const ScoringSnapshot& s, uint32_t user, size_t begin,
                     size_t end, double cutoff, double* dst) {
  switch (s.kernel) {
    case ScoreKernel::kDot: {
      const auto u = s.users.row(user);
      for (size_t v = begin; v < end; ++v) {
        dst[v - begin] = vec::Dot(u, s.items.row(v));
      }
      return 0;
    }
    case ScoreKernel::kNegSqDist:
      return DistanceRowRange<EuclidMetric>(s, user, begin, end, cutoff, dst);
    case ScoreKernel::kNegLorentzSqDist:
      return DistanceRowRange<LorentzMetric>(s, user, begin, end, cutoff,
                                             dst);
    case ScoreKernel::kVirtual:
      break;
  }
  TAXOREC_CHECK_MSG(false, "kVirtual snapshots cannot score blocks");
  return 0;
}

/// Checks a native snapshot's shapes. A tag channel rides only on a
/// distance kernel; without one (`alpha` empty) the tag matrices must be
/// empty too, so an exporter that forgets `alpha` fails here instead of
/// scoring without tags.
void ValidateNative(const ScoringSnapshot& s) {
  TAXOREC_CHECK(s.users.rows() == s.num_users);
  TAXOREC_CHECK(s.items.rows() == s.num_items);
  TAXOREC_CHECK(s.users.cols() == s.items.cols());
  if (s.has_tag_channel()) {
    TAXOREC_CHECK_MSG(s.kernel != ScoreKernel::kDot,
                      "a tag channel needs a distance kernel");
    TAXOREC_CHECK(s.users_tg.rows() == s.num_users);
    TAXOREC_CHECK(s.items_tg.rows() == s.num_items);
    TAXOREC_CHECK(s.users_tg.cols() == s.items_tg.cols());
    TAXOREC_CHECK(s.alpha.size() == s.num_users);
  } else {
    TAXOREC_CHECK_MSG(s.users_tg.empty() && s.items_tg.empty(),
                      "tag-channel rows without a per-user alpha");
  }
}

size_t DoubleTierBytes(const ScoringSnapshot& s) {
  return (s.users.rows() * s.users.cols() + s.items.rows() * s.items.cols() +
          s.users_tg.rows() * s.users_tg.cols() +
          s.items_tg.rows() * s.items_tg.cols() + s.alpha.size()) *
         sizeof(double);
}

}  // namespace

FrozenModel::FrozenModel(ScoringSnapshot snapshot, PrecisionTier tier)
    : snap_(std::move(snapshot)), tier_(tier) {
  static const int kHeapTag = RegisterHeapSubsystem("serve.snapshot");
  HeapScope heap_scope(kHeapTag);
  TAXOREC_CHECK(snap_.num_users > 0 && snap_.num_items > 0);
  if (snap_.kernel == ScoreKernel::kVirtual) {
    TAXOREC_CHECK(snap_.live != nullptr);
    if (tier_ != PrecisionTier::kDouble) {
      TAXOREC_LOG(WARN) << "kVirtual snapshot cannot serve tier "
                        << PrecisionTierName(tier_)
                        << "; falling back to double";
      tier_ = PrecisionTier::kDouble;
    }
    return;
  }
  ValidateNative(snap_);
  if (tier_ != PrecisionTier::kDouble) {
    // A failed compact-snapshot build (serve-snapshot-load fault site) is
    // not fatal: the double-precision snapshot is always present, so the
    // model degrades to the bit-exact tier instead of taking the serving
    // path down.
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
  ScoringSnapshot snap = model.ExportScoringSnapshot();
  if (snap.kernel == ScoreKernel::kVirtual) {
    snap.num_users = split.num_users;
    snap.num_items = split.num_items;
  } else {
    TAXOREC_CHECK_MSG(snap.num_users == split.num_users &&
                          snap.num_items == split.num_items,
                      "scoring snapshot shape does not match the split");
  }
  return FrozenModel(std::move(snap), tier);
}

size_t FrozenModel::snapshot_bytes() const {
  switch (tier_) {
    case PrecisionTier::kDouble:
      return DoubleTierBytes(snap_);
    case PrecisionTier::kFloat32:
      return compact_->float32_bytes();
    case PrecisionTier::kInt8:
      return compact_->int8_bytes() + compact_->float32_bytes();
  }
  return 0;
}

void FrozenModel::ScoreAll(uint32_t user, std::span<double> out) const {
  TAXOREC_CHECK(user < snap_.num_users);
  TAXOREC_CHECK(out.size() == snap_.num_items);
  if (snap_.kernel == ScoreKernel::kVirtual) {
    snap_.live->ScoreItems(user, out);
    return;
  }
  ScoreBlock(user, 0, snap_.num_items, out);
}

size_t FrozenModel::ScoreBlock(uint32_t user, size_t begin, size_t end,
                               std::span<double> out, double cutoff) const {
  TAXOREC_CHECK_MSG(native(), "ScoreBlock requires a native kernel");
  TAXOREC_DCHECK(user < snap_.num_users);
  TAXOREC_DCHECK(begin <= end && end <= snap_.num_items);
  TAXOREC_DCHECK(out.size() == end - begin);
  switch (tier_) {
    case PrecisionTier::kDouble:
      return ScoreRowRange(snap_, user, begin, end, cutoff, out.data());
    case PrecisionTier::kFloat32:
      f32::ScoreRowRangeF32(*compact_, user, begin, end, out.data());
      return 0;
    case PrecisionTier::kInt8:
      f32::ScoreRowRangeInt8(*compact_, user, begin, end, out.data());
      return 0;
  }
  return 0;
}

}  // namespace taxorec
