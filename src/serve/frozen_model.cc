#include "serve/frozen_model.h"

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

/// Scores items [begin, end) for one user with the distance `dist`, plus
/// alpha_u times `dist` on the tag channel (Eq. 17). The per-user
/// `alpha > 0` test is hoisted: it picks a with-tag or a without-tag item
/// loop, each evaluating the live model's per-pair expression.
template <typename Dist>
void DistanceRowRange(const ScoringSnapshot& s, uint32_t user, size_t begin,
                      size_t end, double* dst, Dist dist) {
  const auto u = s.users.row(user);
  const double a = s.has_tag_channel() ? s.alpha[user] : 0.0;
  if (a > 0.0) {
    const auto u_tg = s.users_tg.row(user);
    for (size_t v = begin; v < end; ++v) {
      dst[v - begin] =
          -(dist(u, s.items.row(v)) + a * dist(u_tg, s.items_tg.row(v)));
    }
  } else {
    for (size_t v = begin; v < end; ++v) {
      dst[v - begin] = -dist(u, s.items.row(v));
    }
  }
}

/// Scores items [begin, end) for one user into `dst` with the kernel
/// dispatched once and the user's rows hoisted out of the item loop — the
/// exact per-pair arithmetic of the exporting model's ScoreItems (identical
/// distance/dot calls on copies of the same parameters), so the results are
/// bit-for-bit equal to the live model.
void ScoreRowRange(const ScoringSnapshot& s, uint32_t user, size_t begin,
                   size_t end, double* dst) {
  switch (s.kernel) {
    case ScoreKernel::kDot: {
      const auto u = s.users.row(user);
      for (size_t v = begin; v < end; ++v) {
        dst[v - begin] = vec::Dot(u, s.items.row(v));
      }
      return;
    }
    case ScoreKernel::kNegSqDist:
      DistanceRowRange(s, user, begin, end, dst,
                       [](vec::ConstSpan x, vec::ConstSpan y) {
                         return vec::SqDist(x, y);
                       });
      return;
    case ScoreKernel::kNegLorentzSqDist:
      DistanceRowRange(s, user, begin, end, dst,
                       [](vec::ConstSpan x, vec::ConstSpan y) {
                         return lorentz::SqDistance(x, y);
                       });
      return;
    case ScoreKernel::kVirtual:
      break;
  }
  TAXOREC_CHECK_MSG(false, "kVirtual snapshots cannot score blocks");
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

void FrozenModel::ScoreBlock(uint32_t user, size_t begin, size_t end,
                             std::span<double> out) const {
  TAXOREC_CHECK_MSG(native(), "ScoreBlock requires a native kernel");
  TAXOREC_DCHECK(user < snap_.num_users);
  TAXOREC_DCHECK(begin <= end && end <= snap_.num_items);
  TAXOREC_DCHECK(out.size() == end - begin);
  switch (tier_) {
    case PrecisionTier::kDouble:
      ScoreRowRange(snap_, user, begin, end, out.data());
      return;
    case PrecisionTier::kFloat32:
      f32::ScoreRowRangeF32(*compact_, user, begin, end, out.data());
      return;
    case PrecisionTier::kInt8:
      f32::ScoreRowRangeInt8(*compact_, user, begin, end, out.data());
      return;
  }
}

}  // namespace taxorec
