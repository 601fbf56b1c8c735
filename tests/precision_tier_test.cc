// Tests for the serving precision tiers (DESIGN.md §11): FrozenModel's
// block-scoring contract with and without a pruning cutoff (§10) on every
// kernel family, the chord bound that prunes the Lorentz metric, the
// compact float32/int8 snapshot layout (padding, alignment, zero tails),
// bit identity of the float32 dot kernel against an independently written
// scalar float reference, bit identity between the AVX2 and portable
// backends, top-K rank stability of the reduced tiers against the double
// path, and the int8 tier's float32-exact re-ranked scores.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <numeric>
#include <ostream>
#include <vector>

#include "baselines/bprmf.h"
#include "common/parallel.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "hyperbolic/lorentz.h"
#include "hyperbolic/lorentz_avx2.h"
#include "math/rng.h"
#include "math/simd.h"
#include "math/vec_ops.h"
#include "serve/compact_snapshot.h"
#include "serve/kernels_f32.h"
#include "serve/server.h"
#include "scoring_rows.h"
#include "simd_levels.h"

namespace taxorec {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(GetNumThreads()) {}
  ~ThreadCountGuard() { SetNumThreads(saved_); }

 private:
  int saved_;
};

class PortableBackendGuard {
 public:
  explicit PortableBackendGuard(bool force) {
    simd::CapLevelForTest(force ? simd::Level::kPortable
                                : simd::Level::kAvx512);
  }
  ~PortableBackendGuard() { simd::CapLevelForTest(simd::Level::kAvx512); }
};

// FrozenModel::ScoreBlock's contract for one kernel family, in group
// form. Groups of 1 to kScoreGroup users, each member with its own cutoff,
// sweep the catalogue in blocks off the four-item and two-item lane grids
// (and a catalogue that is a multiple of neither). With no cutoff every
// slot of a member's row is ScoreAll's value bit for bit, NaN included;
// with one, each slot is that value, or -Inf where ScoreAll's value is
// below the cutoff, and the return value counts the -Inf writes.
// NaN coordinates sit in an item's item-channel row, and on tag families
// in an item's tag row and in a user's tag row. No NaN score is ever
// pruned: every item's bound is its own, so a NaN raw in either channel
// makes the bound NaN and the prune test false (the NaN-tag user's
// two-channel scores are all NaN, and none of them is pruned). The
// Euclidean bound is the score's own sum, so it has no slack at all; the
// Lorentz bound of the item whose score is the cutoff sits about 1e-9
// (relative) below it, so a chord table 0.1% too high prunes that item.
// `shared_tag_row` gives every item the same tag row, as items with the
// same tag set nearly do after TagAggregation. The reduced tiers ignore
// the cutoffs. Every value written is appended to *written, so two
// backends can be compared.
void CheckBlockContract(KernelFamily family, bool shared_tag_row,
                        std::vector<double>* written) {
  constexpr size_t kUsers = 9, kItems = 203, kNanItem = 50;
  constexpr size_t kNanTagItem = 121, kNanTagUser = 4;
  constexpr size_t kBlockSizes[] = {1, 6, 3, 13, 5, 37, 2, 64};
  OwnedRows snap = MakeRows(family, kUsers, kItems, 24, 12, 61);
  ASSERT_EQ(snap.view().has_tag_channel(), family.tags);
  if (shared_tag_row) {
    for (size_t v = 1; v < kItems; ++v) {
      vec::Copy(snap.items_tg.row(0), snap.items_tg.row(v));
    }
  }
  const FrozenModel f32model(snap.view(), PrecisionTier::kFloat32);
  const FrozenModel q8model(snap.view(), PrecisionTier::kInt8);
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  snap.items.at(kNanItem, 3) = kNaN;
  if (family.tags) {
    ASSERT_GT(snap.alpha[kNanTagUser], 0.0);
    snap.items_tg.at(kNanTagItem, 2) = kNaN;
    snap.users_tg.at(kNanTagUser, 1) = kNaN;
  }
  const FrozenModel model(snap.view());
  // full[u]: ScoreAll's row; cutoffs[u]: -Inf, then the 1st, 3rd and 10th
  // best non-NaN score (a fixed -1 for a user whose scores are all NaN).
  std::vector<std::vector<double>> full(kUsers, std::vector<double>(kItems));
  std::vector<std::array<double, 4>> cutoffs(kUsers);
  for (uint32_t u = 0; u < kUsers; ++u) {
    model.ScoreAll(u, std::span<double>(full[u]));
    ASSERT_TRUE(std::isnan(full[u][kNanItem]));
    std::vector<double> ranked;
    for (const double x : full[u]) {
      ASSERT_NE(x, kNegInf);
      if (!std::isnan(x)) ranked.push_back(x);
    }
    std::sort(ranked.begin(), ranked.end(), std::greater<double>());
    if (ranked.empty()) {
      cutoffs[u] = {kNegInf, -1.0, -1.0, -1.0};
    } else {
      cutoffs[u] = {kNegInf, ranked[0], ranked[2], ranked[9]};
    }
  }
  std::vector<double> rows(kScoreGroup * kItems);
  std::vector<double> scratch(model.ScoreBlockScratch(kScoreGroup, 64));
  size_t pruned_total = 0;
  for (size_t g = 1; g <= kScoreGroup; ++g) {
    for (size_t first = 0; first < kUsers; ++first) {
      for (size_t shift = 0; shift < 4; ++shift) {
        uint32_t group[kScoreGroup];
        double cut[kScoreGroup];
        for (size_t i = 0; i < g; ++i) {
          group[i] = static_cast<uint32_t>((first + i) % kUsers);
          cut[i] = cutoffs[group[i]][(i + shift) % 4];
        }
        size_t pruned = 0, neg_inf_writes = 0;
        for (size_t b = 0, begin = 0; begin < kItems; ++b) {
          const size_t end = std::min(
              begin + kBlockSizes[b % std::size(kBlockSizes)], kItems);
          const size_t count = end - begin;
          pruned += model.ScoreBlock({group, g}, begin, end,
                                     std::span<double>(rows.data(), g * count),
                                     {cut, g}, scratch);
          for (size_t i = 0; i < g; ++i) {
            for (size_t j = 0; j < count; ++j) {
              const double x = rows[i * count + j];
              written->push_back(x);
              const size_t v = begin + j;
              const double want = full[group[i]][v];
              if (std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(want)) {
                continue;
              }
              ASSERT_NE(cut[i], kNegInf)
                  << "user " << group[i] << " item " << v << " group of "
                  << g << " scores " << want << ", written " << x
                  << " with no cutoff";
              ASSERT_EQ(x, kNegInf) << "user " << group[i] << " item " << v
                                    << " group of " << g;
              ++neg_inf_writes;
              ASSERT_LT(want, cut[i]) << "user " << group[i] << " item " << v
                                      << " pruned at " << cut[i];
            }
          }
          begin = end;
        }
        ASSERT_EQ(pruned, neg_inf_writes)
            << "group of " << g << " from user " << first;
        if (std::all_of(cut, cut + g, [](double c) { return c == kNegInf; })) {
          ASSERT_EQ(pruned, 0u) << "group of " << g << " from user " << first;
        }
        pruned_total += pruned;
      }
    }
  }
  if (family.kernel == ScoreKernel::kDot) {
    EXPECT_EQ(pruned_total, 0u);
  } else {
    EXPECT_GT(pruned_total, 0u);
  }
  const uint32_t all[] = {0, 1, 2, 3, 4, 5, 6, 7};
  for (const FrozenModel* reduced : {&f32model, &q8model}) {
    std::vector<double> want;
    double best[kScoreGroup];
    for (uint32_t u = 0; u < kScoreGroup; ++u) {
      std::vector<double> row(kItems);
      reduced->ScoreAll(u, std::span<double>(row));
      best[u] = *std::max_element(row.begin(), row.end());
      want.insert(want.end(), row.begin(), row.end());
    }
    EXPECT_EQ(reduced->ScoreBlock(all, 0, kItems, std::span<double>(rows),
                                  best),
              0u);
    EXPECT_EQ(rows, want) << PrecisionTierName(reduced->tier());
  }
}

TEST(FrozenModelTest, BlockScoringMatchesScoreAllOrPrunesBelowCutoff) {
  for (const KernelFamily& family : kNativeKernels) {
    for (const bool shared_tag_row : {false, true}) {
      if (shared_tag_row && !family.tags) continue;
      SCOPED_TRACE(::testing::Message()
                   << "kernel " << family
                   << (shared_tag_row ? " shared tag row" : ""));
      std::vector<double> dispatched, portable;
      {
        PortableBackendGuard guard(false);
        CheckBlockContract(family, shared_tag_row, &dispatched);
      }
      {
        PortableBackendGuard guard(true);
        CheckBlockContract(family, shared_tag_row, &portable);
      }
      ASSERT_EQ(dispatched.size(), portable.size());
      for (size_t i = 0; i < dispatched.size(); ++i) {
        ASSERT_EQ(std::bit_cast<uint64_t>(dispatched[i]),
                  std::bit_cast<uint64_t>(portable[i]))
            << "value " << i;
      }
    }
  }
}

/// Betas at which the chord bound (lorentz::SqDistanceLowerBound) has no
/// slack of its own or little: every grid point B_k of its table, each
/// +-1 ulp, the midpoint of every interval and 1 + m 2^-52 for m < 200,
/// then `seeded` log-uniform betas in [1, 2^70].
std::vector<double> ChordProbeBetas(size_t seeded, uint64_t seed) {
  const auto grid = [](size_t k) {
    return std::ldexp(1.0 + static_cast<double>(k % 16) / 16.0,
                      static_cast<int>(k / 16));
  };
  std::vector<double> betas;
  for (size_t k = 0; k < lorentz::SqDistanceChords::kSize; ++k) {
    const double b = grid(k);
    betas.insert(betas.end(),
                 {b, std::nextafter(b, 0.0), std::nextafter(b, 0x1p70)});
    if (k + 1 < lorentz::SqDistanceChords::kSize) {
      betas.push_back(b + (grid(k + 1) - b) / 2.0);
    }
  }
  for (int m = 0; m < 200; ++m) betas.push_back(1.0 + m * 0x1p-52);
  Rng rng(seed);
  for (size_t i = 0; i < seeded; ++i) {
    betas.push_back(std::exp2(rng.UniformReal(0.0, 70.0)));
  }
  return betas;
}

/// The squared distance lorentz::SqDistance gives for `beta`: from the
/// origin to (beta, 0), whose Lorentz inner product is exactly -beta.
double SqDistanceAt(double beta) {
  const double origin[] = {1.0, 0.0}, v[] = {beta, 0.0};
  return lorentz::SqDistance(origin, v);
}

#if TAXOREC_HAVE_AVX2_BUILD
__attribute__((target("avx2"))) void ChordBoundsAvx2(const double* beta,
                                                     size_t n, double* out) {
  const lorentz::SqDistanceChords& chords = lorentz::SqDistanceChordTable();
  for (size_t j = 0; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(out + j, lorentz::SqDistanceLowerBoundAvx2(
                                  chords, _mm256_loadu_pd(beta + j)));
  }
}
#endif

/// The chord bound of each beta as the active SIMD level runs it in the
/// prune loop: four at a time in the AVX2 form where that runs, the rest
/// in the scalar form.
std::vector<double> ChordBoundsAtActiveLevel(const std::vector<double>& betas) {
  std::vector<double> out(betas.size());
  size_t j = 0;
#if TAXOREC_HAVE_AVX2_BUILD
  if (simd::Avx2Enabled()) {
    j = betas.size() - betas.size() % 4;
    ChordBoundsAvx2(betas.data(), j, out.data());
  }
#endif
  for (; j < betas.size(); ++j) {
    out[j] = lorentz::SqDistanceLowerBound(betas[j]);
  }
  return out;
}

// The chord bound, times its cushion, is at most the squared distance
// lorentz::SqDistance gives for the same beta: at the grid points (where
// it is the table's value, so a table 1e-6 too high fails there), next to
// them, near 1, at 10^5 seeded betas and at the clamps. A NaN beta gives
// a NaN bound. On every SIMD level the form that runs there writes the
// scalar form's bits, NaN included.
TEST(ChordBoundTest, StaysBelowTheSquaredDistance) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> betas = {kNaN,
                               -kNaN,
                               std::nextafter(1.0, 0.0),
                               0x1p64,
                               1e300,
                               std::numeric_limits<double>::max(),
                               kInf,
                               -2.0,
                               -kInf,
                               0.0};
  const std::vector<double> probes = ChordProbeBetas(100000, 5);
  betas.insert(betas.end(), probes.begin(), probes.end());
  std::vector<double> want(betas.size());
  for (size_t j = 0; j < betas.size(); ++j) {
    const double beta = betas[j];
    want[j] = lorentz::SqDistanceLowerBound(beta);
    if (std::isnan(beta)) {
      ASSERT_TRUE(std::isnan(want[j]));
      continue;
    }
    ASSERT_LE(want[j] * lorentz::kSqDistanceBoundCushion, SqDistanceAt(beta))
        << std::hexfloat << "beta " << beta;
  }
  for (const simd::Level level : HostSimdLevels()) {
    SimdLevelCap cap(level);
    const std::vector<double> got = ChordBoundsAtActiveLevel(betas);
    for (size_t j = 0; j < betas.size(); ++j) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got[j]),
                std::bit_cast<uint64_t>(want[j]))
          << simd::LevelName(level) << " beta " << std::hexfloat << betas[j];
    }
  }
}

// ScoreBlock's prune test with no slack. The users sit at the hyperboloid
// origin, so an item's raw distance is exactly its time coordinate, and
// the items sit at ChordProbeBetas, on the item channel and, in reverse
// order, on an alpha > 0 tag channel (user 1 has alpha = 0). Each item is
// scored in its block of four with its own score as every group member's
// cutoff: it must come back exactly, never pruned, and the other items of
// its block only below the cutoff. Groups of 1 and 2 on every SIMD level,
// so the scalar and the four-wide tests both see every lane position.
TEST(FrozenModelTest, ChordBoundNeverPrunesAnItemAtItsOwnScore) {
  const std::vector<double> betas = ChordProbeBetas(20000, 29);
  const size_t n = betas.size();
  const auto at_origin = [](size_t dim) {
    Matrix m(3, dim);
    for (size_t u = 0; u < 3; ++u) m.at(u, 0) = 1.0;
    return m;
  };
  const auto at_betas = [&](bool reversed) {
    Matrix m(n, 3);
    for (size_t v = 0; v < n; ++v) {
      const double beta = betas[reversed ? n - 1 - v : v];
      m.at(v, 0) = beta;
      m.at(v, 1) = std::sqrt((beta - 1.0) * (beta + 1.0));
    }
    return m;
  };
  for (const bool tags : {false, true}) {
    SCOPED_TRACE(tags ? "with a tag channel" : "item channel alone");
    OwnedRows snap;
    snap.kernel = ScoreKernel::kNegLorentzSqDist;
    snap.users = at_origin(3);
    snap.items = at_betas(false);
    if (tags) {
      snap.users_tg = at_origin(3);
      snap.items_tg = at_betas(true);
      snap.alpha = {0.7, 0.0, 0.35};
    }
    const FrozenModel model(snap.view());
    std::vector<std::vector<double>> full(3, std::vector<double>(n));
    for (uint32_t u = 0; u < 3; ++u) {
      model.ScoreAll(u, std::span<double>(full[u]));
    }
    const std::vector<std::vector<uint32_t>> groups = {{0}, {1},    {2},
                                                       {0, 1}, {1, 2}, {2, 0}};
    std::vector<double> rows(2 * 4), scratch(model.ScoreBlockScratch(2, 4));
    for (const simd::Level level : HostSimdLevels()) {
      SimdLevelCap cap(level);
      for (const std::vector<uint32_t>& group : groups) {
        const size_t g = group.size();
        for (size_t v = 0; v < n; ++v) {
          const size_t begin = v - v % 4, end = std::min(begin + 4, n);
          const size_t count = end - begin;
          double cut[2];
          for (size_t i = 0; i < g; ++i) cut[i] = full[group[i]][v];
          model.ScoreBlock(group, begin, end,
                           std::span<double>(rows.data(), g * count),
                           {cut, g}, scratch);
          for (size_t i = 0; i < g; ++i) {
            for (size_t j = 0; j < count; ++j) {
              const double x = rows[i * count + j];
              const double want = full[group[i]][begin + j];
              if (std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(want)) {
                continue;
              }
              ASSERT_NE(begin + j, v)
                  << simd::LevelName(level) << " user " << group[i]
                  << " group of " << g << " pruned beta " << std::hexfloat
                  << betas[v] << " at its own score " << want;
              ASSERT_EQ(x, kNegInf);
              ASSERT_LT(want, cut[i]);
            }
          }
        }
      }
    }
  }
}

// A list must not depend on the group it is ranked in. Every user is
// ranked alone with BlockedTopK, then through BlockedTopKBatch in groups
// of 1 to kScoreGroup at every lane position (rotating windows over the
// users, which mix alpha = 0 and alpha > 0 users on the tag families),
// in a group that repeats a user, and in one batch of all users. Every
// native kernel family and all three tiers, blocks of 7 and 64 items,
// dispatched and forced-portable kernels: the lists must be equal item
// for item and score for score, bit for bit.
TEST(TopKTest, ListsDoNotDependOnTheGroup) {
  constexpr size_t kUsers = 11, kItems = 203;
  for (const KernelFamily& family : kNativeKernels) {
    const OwnedRows snap = MakeRows(family, kUsers, kItems, 24, 12, 83);
    for (const PrecisionTier tier :
         {PrecisionTier::kDouble, PrecisionTier::kFloat32,
          PrecisionTier::kInt8}) {
      const FrozenModel model(snap.view(), tier);
      // Each user excludes every (user + 3)-th item and asks for its own k.
      std::vector<std::vector<uint32_t>> exclude(kUsers);
      std::vector<size_t> ks(kUsers);
      for (uint32_t u = 0; u < kUsers; ++u) {
        for (uint32_t v = u; v < kItems; v += u + 3) exclude[u].push_back(v);
        ks[u] = 5 + 9 * (u % 4);
      }
      const auto exclude_of = [&](uint32_t u) {
        return std::span<const uint32_t>(exclude[u]);
      };
      for (const size_t block : {size_t{7}, size_t{64}}) {
        std::vector<std::vector<TopKEntry>> alone(kUsers);
        TopKHeap heap;
        std::vector<double> scratch;
        for (uint32_t u = 0; u < kUsers; ++u) {
          BlockedTopK(model, u, ks[u], exclude[u], &heap, &scratch, &alone[u],
                      block);
        }
        std::vector<std::vector<uint32_t>> groups;
        for (size_t g = 1; g <= kScoreGroup; ++g) {
          for (uint32_t first = 0; first < kUsers; ++first) {
            std::vector<uint32_t> group;
            for (size_t i = 0; i < g; ++i) {
              group.push_back(static_cast<uint32_t>((first + i) % kUsers));
            }
            groups.push_back(group);
          }
        }
        groups.push_back({3, 3, 5, 3, 0});
        std::vector<uint32_t> everyone(kUsers);
        std::iota(everyone.begin(), everyone.end(), 0u);
        groups.push_back(everyone);
        for (const bool portable : {false, true}) {
          PortableBackendGuard guard(portable);
          std::vector<TopKHeap> heaps;
          std::vector<std::vector<TopKEntry>> out;
          for (const std::vector<uint32_t>& group : groups) {
            std::vector<size_t> group_ks;
            for (const uint32_t u : group) group_ks.push_back(ks[u]);
            BlockedTopKBatch(model, group, group_ks, exclude_of, &heaps,
                             &scratch, &out, block);
            ASSERT_EQ(out.size(), group.size());
            for (size_t i = 0; i < group.size(); ++i) {
              const std::vector<TopKEntry>& want = alone[group[i]];
              ASSERT_EQ(out[i].size(), want.size());
              for (size_t r = 0; r < want.size(); ++r) {
                ASSERT_EQ(out[i][r].item, want[r].item)
                    << "kernel " << family << " "
                    << PrecisionTierName(tier) << " block " << block
                    << " portable " << portable << " group of "
                    << group.size() << " lane " << i << " rank " << r;
                ASSERT_EQ(std::bit_cast<uint64_t>(out[i][r].score),
                          std::bit_cast<uint64_t>(want[r].score))
                    << "kernel " << family << " user " << group[i];
              }
            }
          }
        }
      }
    }
  }
}

/// Independent re-statement of the canonical float32 reduction from
/// serve/kernels_f32.h, written from the documented algorithm (not by
/// calling the library): 16 strided fmaf lanes over the zero-padded row,
/// then m[j] = l[j] + l[j+8] and the tree ((m0+m4)+(m2+m6)) +
/// ((m1+m5)+(m3+m7)).
float CanonicalDot(const std::vector<float>& x, const std::vector<float>& y) {
  EXPECT_EQ(x.size(), y.size());
  EXPECT_EQ(x.size() % 16, 0u);
  float l[16] = {};
  for (size_t i = 0; i < x.size(); i += 16) {
    for (size_t j = 0; j < 16; ++j) l[j] = std::fmaf(x[i + j], y[i + j], l[j]);
  }
  float m[8];
  for (size_t j = 0; j < 8; ++j) m[j] = l[j] + l[j + 8];
  const float t0 = m[0] + m[4], t1 = m[1] + m[5];
  const float t2 = m[2] + m[6], t3 = m[3] + m[7];
  return (t0 + t2) + (t1 + t3);
}

/// Narrows a double row to float and zero-pads to a multiple of 16.
std::vector<float> PaddedFloatRow(std::span<const double> row) {
  std::vector<float> out(((row.size() + 15) / 16) * 16, 0.0f);
  for (size_t i = 0; i < row.size(); ++i) {
    out[i] = static_cast<float>(row[i]);
  }
  return out;
}

/// Fraction of `want`'s items that also appear in `got` (top-K overlap).
double Overlap(const std::vector<TopKEntry>& want,
               const std::vector<TopKEntry>& got) {
  if (want.empty()) return 1.0;
  size_t hits = 0;
  for (const TopKEntry& w : want) {
    for (const TopKEntry& g : got) {
      if (g.item == w.item) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(want.size());
}

std::vector<TopKEntry> TopKOf(const FrozenModel& model, uint32_t user,
                              size_t k) {
  TopKHeap heap;
  std::vector<double> scratch;
  std::vector<TopKEntry> out;
  BlockedTopK(model, user, k, {}, &heap, &scratch, &out, /*block=*/64);
  return out;
}

TEST(PrecisionTierTest, ParseAndNames) {
  PrecisionTier tier = PrecisionTier::kDouble;
  EXPECT_TRUE(ParsePrecisionTier("float32", &tier));
  EXPECT_EQ(tier, PrecisionTier::kFloat32);
  EXPECT_TRUE(ParsePrecisionTier("int8", &tier));
  EXPECT_EQ(tier, PrecisionTier::kInt8);
  EXPECT_TRUE(ParsePrecisionTier("double", &tier));
  EXPECT_EQ(tier, PrecisionTier::kDouble);
  EXPECT_FALSE(ParsePrecisionTier("fp16", &tier));
  EXPECT_STREQ(PrecisionTierName(PrecisionTier::kFloat32), "float32");
  EXPECT_STREQ(PrecisionTierName(PrecisionTier::kInt8), "int8");
  EXPECT_STREQ(PrecisionTierName(PrecisionTier::kDouble), "double");
}

TEST(CompactSnapshotTest, LayoutPaddingAlignmentAndZeroTails) {
  // dim 9 pads to 16; tag dim 17 pads to 32.
  const OwnedRows snap = MakeRows(kTwoChannelEuclid,
                                 /*users=*/7, /*items=*/13,
                                 /*dim=*/9, /*tag_dim=*/17, 42);
  const CompactSnapshot c =
      CompactSnapshot::Build(snap.view(), /*with_int8=*/true);
  EXPECT_EQ(c.users.dim, 9u);
  EXPECT_EQ(c.users.stride, 16u);
  EXPECT_EQ(c.items_tg.dim, 17u);
  EXPECT_EQ(c.items_tg.stride, 32u);
  for (const CompactChannel* ch : {&c.users, &c.items, &c.users_tg,
                                   &c.items_tg}) {
    ASSERT_FALSE(ch->empty());
    EXPECT_EQ(ch->stride % kCompactRowPad, 0u);
    for (size_t r = 0; r < ch->rows; ++r) {
      // Every row start is 64-byte aligned (aligned vector loads).
      EXPECT_EQ(reinterpret_cast<uintptr_t>(ch->row(r)) % 64, 0u);
      for (size_t i = ch->dim; i < ch->stride; ++i) {
        EXPECT_EQ(ch->row(r)[i], 0.0f) << "nonzero padded tail";
      }
    }
  }
  // Narrowed values round-trip from the double source.
  for (size_t r = 0; r < snap.users.rows(); ++r) {
    for (size_t i = 0; i < snap.users.cols(); ++i) {
      EXPECT_EQ(c.users.row(r)[i], static_cast<float>(snap.users.at(r, i)));
    }
  }
  ASSERT_EQ(c.alpha.size(), snap.alpha.size());
  for (size_t u = 0; u < snap.alpha.size(); ++u) {
    EXPECT_EQ(c.alpha[u], static_cast<float>(snap.alpha[u]));
  }
  // int8 channels: same padded geometry, q = round(x / scale) in [-127,127],
  // zero tails, shared scale = max|x| / 127 over the channel pair.
  ASSERT_TRUE(c.has_int8);
  double max_abs = 0.0;
  for (const Matrix* m : {&snap.users, &snap.items}) {
    for (size_t r = 0; r < m->rows(); ++r) {
      for (double x : m->row(r)) max_abs = std::max(max_abs, std::fabs(x));
    }
  }
  EXPECT_NEAR(c.int8_scale_ir, static_cast<float>(max_abs) / 127.0f, 1e-12);
  // int8 rows are stride bytes wide (1-byte lanes), so only the buffer
  // base carries the 64-byte guarantee; the scalar int8 kernels need no
  // per-row alignment.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c.users_q.data.data()) % 64, 0u);
  for (size_t r = 0; r < c.users_q.rows; ++r) {
    for (size_t i = 0; i < c.users_q.dim; ++i) {
      const double q = std::nearbyint(snap.users.at(r, i) / c.int8_scale_ir);
      EXPECT_EQ(c.users_q.row(r)[i],
                static_cast<int8_t>(std::clamp(q, -127.0, 127.0)));
    }
    for (size_t i = c.users_q.dim; i < c.users_q.stride; ++i) {
      EXPECT_EQ(c.users_q.row(r)[i], 0);
    }
  }
}

TEST(CompactSnapshotTest, SnapshotBytesShrinkPerTier) {
  const OwnedRows snap = MakeRows(kTwoChannelLorentz, 16, 64, 32, 16, 3);
  const FrozenModel d(snap.view(), PrecisionTier::kDouble);
  const FrozenModel f(snap.view(), PrecisionTier::kFloat32);
  const FrozenModel q(snap.view(), PrecisionTier::kInt8);
  EXPECT_LT(f.snapshot_bytes(), d.snapshot_bytes());
  // int8 reports coarse + re-rank payload (both are read while serving).
  EXPECT_EQ(q.snapshot_bytes(),
            f.snapshot_bytes() + q.compact()->int8_bytes());
  EXPECT_EQ(d.compact(), nullptr);
  ASSERT_NE(f.compact(), nullptr);
  EXPECT_FALSE(f.compact()->has_int8);
  ASSERT_NE(q.compact(), nullptr);
  EXPECT_TRUE(q.compact()->has_int8);
}

// Satellite 3a: the float32 dot kernel is bit-identical to the scalar
// float reference — both the full score rows and the served top-K.
TEST(Float32KernelTest, DotBitIdenticalToScalarFloatReference) {
  const size_t kUsers = 12, kItems = 157, kDim = 24;
  const OwnedRows snap =
      MakeRows({ScoreKernel::kDot}, kUsers, kItems, kDim, 0, 91);
  const FrozenModel f32model(snap.view(), PrecisionTier::kFloat32);
  std::vector<double> got(kItems);
  for (uint32_t u = 0; u < kUsers; ++u) {
    f32model.ScoreAll(u, std::span<double>(got));
    const std::vector<float> uu = PaddedFloatRow(snap.users.row(u));
    for (size_t v = 0; v < kItems; ++v) {
      const float want = CanonicalDot(uu, PaddedFloatRow(snap.items.row(v)));
      ASSERT_EQ(got[v], static_cast<double>(want))
          << "user " << u << " item " << v;
    }
  }
}

// The AVX2 and portable backends produce identical bits for every kernel
// family (runtime dispatch never changes served results). Vacuous on
// non-AVX2 hardware or portable-only builds.
TEST(Float32KernelTest, Avx2AndPortableBackendsBitIdentical) {
  if (simd::SupportedLevel() < simd::Level::kAvx2) {
    GTEST_SKIP() << "no AVX2 kernels in this build/CPU";
  }
  for (const KernelFamily& family : kNativeKernels) {
    const OwnedRows snap = MakeRows(family, 9, 211, 24, 12, 7);
    const FrozenModel model(snap.view(), PrecisionTier::kFloat32);
    std::vector<double> avx(snap.items.rows()), portable(snap.items.rows());
    for (uint32_t u = 0; u < snap.users.rows(); ++u) {
      {
        PortableBackendGuard guard(false);
        ASSERT_STREQ(f32::ActiveBackendName(), "avx2");
        model.ScoreAll(u, std::span<double>(avx));
      }
      {
        PortableBackendGuard guard(true);
        ASSERT_STREQ(f32::ActiveBackendName(), "portable");
        model.ScoreAll(u, std::span<double>(portable));
      }
      for (size_t v = 0; v < snap.items.rows(); ++v) {
        ASSERT_EQ(avx[v], portable[v])
            << PrecisionTierName(PrecisionTier::kFloat32) << " kernel "
            << family << " user " << u << " item " << v;
      }
    }
  }
}

// Satellite 3c: padded tails behave exactly like explicit zero columns —
// a dim-24 snapshot (8-float pad) scores bit-identically to a dim-32
// snapshot whose last 8 columns are zero.
TEST(Float32KernelTest, PaddedTailsNeverPerturbScores) {
  for (const KernelFamily& family : kNativeKernels) {
    const OwnedRows snap = MakeRows(family, 6, 90, 24, 20, 13);
    OwnedRows wide = snap;
    wide.users = Matrix(snap.users.rows(), 32);
    wide.items = Matrix(snap.items.rows(), 32);
    for (size_t r = 0; r < snap.users.rows(); ++r) {
      for (size_t c = 0; c < 24; ++c) {
        wide.users.at(r, c) = snap.users.at(r, c);
      }
    }
    for (size_t r = 0; r < snap.items.rows(); ++r) {
      for (size_t c = 0; c < 24; ++c) {
        wide.items.at(r, c) = snap.items.at(r, c);
      }
    }
    const FrozenModel narrow(snap.view(), PrecisionTier::kFloat32);
    const FrozenModel padded(wide.view(), PrecisionTier::kFloat32);
    std::vector<double> a(snap.items.rows()), b(snap.items.rows());
    for (uint32_t u = 0; u < snap.users.rows(); ++u) {
      narrow.ScoreAll(u, std::span<double>(a));
      padded.ScoreAll(u, std::span<double>(b));
      for (size_t v = 0; v < snap.items.rows(); ++v) {
        ASSERT_EQ(a[v], b[v]) << "kernel " << family;
      }
    }
  }
}

// Satellite 3b: top-K rank stability of the reduced tiers vs the double
// path, for every kernel family across seeds, at the documented
// tolerances (kFloat32TopKOverlap / kInt8TopKOverlap).
TEST(RankStabilityTest, ReducedTiersMeetDocumentedOverlapTolerances) {
  const size_t kUsers = 24, kItems = 400, kK = 20;
  for (const KernelFamily& family : kNativeKernels) {
    for (uint64_t seed : {101u, 202u, 303u}) {
      const OwnedRows snap = MakeRows(family, kUsers, kItems, 24, 12, seed);
      const FrozenModel dmodel(snap.view(), PrecisionTier::kDouble);
      const FrozenModel fmodel(snap.view(),
                               PrecisionTier::kFloat32);
      const FrozenModel qmodel(snap.view(), PrecisionTier::kInt8);
      double f32_overlap = 0.0, int8_overlap = 0.0;
      for (uint32_t u = 0; u < kUsers; ++u) {
        const std::vector<TopKEntry> want = TopKOf(dmodel, u, kK);
        f32_overlap += Overlap(want, TopKOf(fmodel, u, kK));
        int8_overlap += Overlap(want, TopKOf(qmodel, u, kK));
      }
      f32_overlap /= static_cast<double>(kUsers);
      int8_overlap /= static_cast<double>(kUsers);
      EXPECT_GE(f32_overlap, kFloat32TopKOverlap)
          << "kernel " << family << " seed " << seed;
      EXPECT_GE(int8_overlap, kInt8TopKOverlap)
          << "kernel " << family << " seed " << seed;
    }
  }
}

// The int8 tier's served scores are float32-exact: every entry matches
// the float32 tier's own score for that item bit-for-bit, even when K
// exceeds the coarse head, for every kernel family on either backend.
TEST(Int8RerankTest, ServedScoresAreFloat32Exact) {
  for (const KernelFamily& family : kNativeKernels) {
    const OwnedRows snap = MakeRows(family, 10, 120, 24, 12, 55);
    const FrozenModel model(snap.view(), PrecisionTier::kInt8);
    const FrozenModel f32model(snap.view(), PrecisionTier::kFloat32);
    for (const bool portable : {false, true}) {
      PortableBackendGuard guard(portable);
      for (size_t k : {7u, 40u, 200u}) {
        for (uint32_t u = 0; u < snap.users.rows(); ++u) {
          const std::vector<TopKEntry> got = TopKOf(model, u, k);
          EXPECT_EQ(got.size(), std::min(k, snap.items.rows()));
          for (const TopKEntry& e : got) {
            if (e.score == kNegInf) continue;
            double exact = 0.0;
            f32model.ScoreBlock({&u, 1}, e.item, e.item + 1,
                                std::span<double>(&exact, 1));
            ASSERT_EQ(e.score, exact)
                << "kernel " << family << " " << f32::ActiveBackendName()
                << " user " << u << " item " << e.item;
          }
          // Entries arrive in the deterministic ranking order.
          for (size_t i = 1; i < got.size(); ++i) {
            ASSERT_TRUE(RanksBefore(got[i - 1].score, got[i - 1].item,
                                    got[i].score, got[i].item));
          }
        }
      }
    }
  }
}

TEST(ServerTierTest, BatchServerIsThreadCountInvariantOnEveryTier) {
  ThreadCountGuard guard;
  SyntheticConfig cfg;
  cfg.seed = 17;
  cfg.num_users = 40;
  cfg.num_items = 120;
  cfg.num_tags = 10;
  cfg.num_roots = 3;
  const DataSplit split = TemporalSplit(GenerateSynthetic(cfg));
  const OwnedRows snap = MakeRows(kTwoChannelEuclid, split.num_users,
                                 split.num_items, 24, 12, 23);
  std::vector<ServeRequest> requests;
  for (uint32_t u = 0; u < split.num_users; ++u) {
    requests.push_back({u, 10 + u % 7});
  }
  for (PrecisionTier tier :
       {PrecisionTier::kDouble, PrecisionTier::kFloat32,
        PrecisionTier::kInt8}) {
    ServeOptions options;
    options.user_batch = 4;
    options.grain = 8;
    SetNumThreads(1);
    BatchServer single(FrozenModel(snap.view(), tier), split, options);
    const auto want = single.ServeBatch(requests);
    SetNumThreads(4);
    BatchServer pooled(FrozenModel(snap.view(), tier), split, options);
    const auto got = pooled.ServeBatch(requests);
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], got[i])
          << PrecisionTierName(tier) << " request " << i;
    }
    EXPECT_EQ(pooled.model().tier(), tier);
  }
}

// A request file accepts any k >= 1. A k far beyond the catalogue must
// serve what k = num_items serves, on every tier and through the int8 IVF
// probe: the int8 tier's coarse over-fetch (kInt8RerankFactor * k) must
// not wrap to an empty heap.
TEST(ServerTierTest, HugeKServesWhatCatalogueSizedKServes) {
  SyntheticConfig cfg;
  cfg.seed = 19;
  cfg.num_users = 12;
  cfg.num_items = 50;
  cfg.num_tags = 6;
  cfg.num_roots = 2;
  const DataSplit split = TemporalSplit(GenerateSynthetic(cfg));
  const OwnedRows snap = MakeRows(
      kTwoChannelLorentz, split.num_users, split.num_items, 24, 12, 37);
  std::vector<ServeRequest> whole, huge;
  for (uint32_t u = 0; u < split.num_users; ++u) {
    whole.push_back({u, split.num_items});
    huge.push_back({u, size_t{1} << 62});
  }
  // The exact sweep returns the whole catalogue; the IVF probe returns the
  // items of the cells it probed.
  const auto expect_same = [&](BatchServer* server, bool exact,
                               const char* label) {
    const auto want = server->ServeBatch(whole);
    const auto got = server->ServeBatch(huge);
    for (size_t i = 0; i < whole.size(); ++i) {
      if (exact) {
        EXPECT_EQ(want[i].size(), split.num_items) << label << " user " << i;
      }
      ASSERT_FALSE(want[i].empty()) << label << " user " << i;
      ASSERT_EQ(got[i], want[i]) << label << " user " << i;
    }
  };
  for (const PrecisionTier tier :
       {PrecisionTier::kDouble, PrecisionTier::kFloat32,
        PrecisionTier::kInt8}) {
    BatchServer server(FrozenModel(snap.view(), tier), split);
    expect_same(&server, /*exact=*/true, PrecisionTierName(tier));
  }
  ServeOptions options;
  options.retrieval = RetrievalMode::kIvf;
  options.ivf.nprobe = 2;
  BatchServer ivf(FrozenModel(snap.view(), PrecisionTier::kInt8),
                  split, options);
  ASSERT_NE(ivf.model().ivf(), nullptr);
  expect_same(&ivf, /*exact=*/false, "ivf.int8");
}

// The freezing constructor consumes ServeOptions::precision; a trained
// native baseline serves finite float32 scores end to end.
TEST(ServerTierTest, FreezeWithPrecisionOptionServesReducedTier) {
  SyntheticConfig scfg;
  scfg.seed = 11;
  scfg.num_users = 30;
  scfg.num_items = 60;
  scfg.num_tags = 8;
  scfg.num_roots = 2;
  const DataSplit split = TemporalSplit(GenerateSynthetic(scfg));
  ModelConfig cfg;
  cfg.dim = 16;
  cfg.epochs = 2;
  cfg.batches_per_epoch = 4;
  cfg.batch_size = 64;
  BprMf model(cfg);
  Rng rng(9);
  model.Fit(split, &rng);
  ServeOptions options;
  options.precision = PrecisionTier::kFloat32;
  BatchServer server(model, split, options);
  EXPECT_EQ(server.model().tier(), PrecisionTier::kFloat32);
  EXPECT_GT(server.model().snapshot_bytes(), 0u);
  const ServeRequest request{3, 10};
  const auto result = server.ServeBatch({&request, 1})[0];
  ASSERT_EQ(result.size(), 10u);
  for (const TopKEntry& e : result) EXPECT_TRUE(std::isfinite(e.score));
}

// Requesting a reduced tier for a kVirtual snapshot degrades to double.
TEST(ServerTierTest, VirtualSnapshotFallsBackToDouble) {
  class HashModel : public Recommender {
   public:
    std::string name() const override { return "Hash"; }
    void ScoreItems(uint32_t user, std::span<double> out) const override {
      for (size_t v = 0; v < out.size(); ++v) {
        out[v] = std::sin(static_cast<double>(user * 131 + v * 17));
      }
    }
  };
  SyntheticConfig cfg;
  cfg.seed = 5;
  cfg.num_users = 12;
  cfg.num_items = 30;
  cfg.num_tags = 4;
  cfg.num_roots = 2;
  const DataSplit split = TemporalSplit(GenerateSynthetic(cfg));
  HashModel model;
  const FrozenModel frozen =
      FrozenModel::Freeze(model, split, PrecisionTier::kInt8);
  EXPECT_FALSE(frozen.native());
  EXPECT_EQ(frozen.tier(), PrecisionTier::kDouble);
  EXPECT_EQ(frozen.compact(), nullptr);
}

}  // namespace
}  // namespace taxorec
