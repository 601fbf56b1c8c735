// Tests for the serving subsystem: FrozenModel export round-trips, the
// K-bounded heap vs the partial_sort reference, the LRU result cache, and
// the batched server's determinism across thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "baselines/cml.h"
#include "baselines/hyperml.h"
#include "baselines/recommender.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "core/taxorec_model.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/recommend.h"
#include "math/rng.h"
#include "scoring_rows.h"
#include "serve/server.h"

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

DataSplit MakeSplit() {
  SyntheticConfig cfg;
  cfg.seed = 11;
  cfg.num_users = 60;
  cfg.num_items = 90;
  cfg.num_tags = 15;
  cfg.num_roots = 3;
  return TemporalSplit(GenerateSynthetic(cfg));
}

ModelConfig TinyConfig() {
  ModelConfig cfg;
  cfg.dim = 16;
  cfg.tag_dim = 4;
  cfg.epochs = 3;
  cfg.batches_per_epoch = 4;
  cfg.batch_size = 128;
  cfg.gcn_layers = 2;
  cfg.taxo_rebuild_every = 2;
  return cfg;
}

// Items the double tier's bound has skipped so far in this process.
uint64_t ItemsPruned() {
  return MetricsRegistry::Instance()
      .GetCounter("taxorec.rank.items_pruned")
      ->value();
}

// Seed-style reference ranking: full score row, sanitize, mask, iota +
// partial_sort with the (score desc, id asc) comparator.
std::vector<TopKEntry> ReferenceTopK(const std::vector<double>& raw, size_t k,
                                     std::span<const uint32_t> exclude) {
  std::vector<double> scores = raw;
  for (double& x : scores) {
    if (!std::isfinite(x)) x = kNegInf;
  }
  for (uint32_t v : exclude) scores[v] = kNegInf;
  std::vector<uint32_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0u);
  const size_t top = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + top, order.end(),
                    [&](uint32_t a, uint32_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  std::vector<TopKEntry> out;
  for (size_t i = 0; i < top; ++i) out.push_back({order[i], scores[order[i]]});
  return out;
}

// Model whose scores contain NaN and ±Inf holes (a diverged model).
class DefectiveModel : public Recommender {
 public:
  std::string name() const override { return "Defective"; }
  void ScoreItems(uint32_t user, std::span<double> out) const override {
    for (size_t v = 0; v < out.size(); ++v) {
      out[v] = static_cast<double>((user * 31 + v * 7) % 13);
    }
    out[1 % out.size()] = std::numeric_limits<double>::quiet_NaN();
    out[4 % out.size()] = std::numeric_limits<double>::infinity();
    out[7 % out.size()] = kNegInf;
  }
};

// Deterministic virtual-only model (exercises the kVirtual fallback).
class HashModel : public Recommender {
 public:
  std::string name() const override { return "Hash"; }
  void ScoreItems(uint32_t user, std::span<double> out) const override {
    for (size_t v = 0; v < out.size(); ++v) {
      out[v] = std::sin(static_cast<double>(user * 131 + v * 17));
    }
  }
};

void ExpectFrozenMatchesLive(const Recommender& model, const DataSplit& split,
                             bool expect_native) {
  const FrozenModel frozen = FrozenModel::Freeze(model, split);
  EXPECT_EQ(frozen.native(), expect_native);
  ASSERT_EQ(frozen.num_users(), split.num_users);
  ASSERT_EQ(frozen.num_items(), split.num_items);
  std::vector<double> live(split.num_items), snap(split.num_items);
  for (uint32_t u = 0; u < split.num_users; ++u) {
    model.ScoreItems(u, std::span<double>(live));
    frozen.ScoreAll(u, std::span<double>(snap));
    for (size_t v = 0; v < split.num_items; ++v) {
      // Bit-for-bit: the frozen kernel runs the same per-pair arithmetic.
      ASSERT_EQ(live[v], snap[v]) << "user " << u << " item " << v;
    }
  }
}

TEST(FrozenModelTest, TaxoRecTwoChannelLorentzRoundTrip) {
  const DataSplit split = MakeSplit();
  TaxoRecModel model(TinyConfig(), TaxoRecOptions{});
  Rng rng(5);
  model.Fit(split, &rng);
  const FrozenModel frozen = FrozenModel::Freeze(model, split);
  EXPECT_EQ(frozen.kernel(), ScoreKernel::kNegLorentzSqDist);
  EXPECT_TRUE(frozen.snapshot().has_tag_channel());
  ExpectFrozenMatchesLive(model, split, /*expect_native=*/true);
}

TEST(FrozenModelTest, TaxoRecEuclideanVariant) {
  const DataSplit split = MakeSplit();
  TaxoRecOptions opts;
  opts.hyperbolic = false;
  TaxoRecModel model(TinyConfig(), opts);
  Rng rng(5);
  model.Fit(split, &rng);
  const FrozenModel frozen = FrozenModel::Freeze(model, split);
  EXPECT_EQ(frozen.kernel(), ScoreKernel::kNegSqDist);
  EXPECT_TRUE(frozen.snapshot().has_tag_channel());
  ExpectFrozenMatchesLive(model, split, true);
}

TEST(FrozenModelTest, NativeBaselinesRoundTrip) {
  const DataSplit split = MakeSplit();
  ModelConfig cfg = TinyConfig();
  const auto check = [&](Recommender& model, ScoreKernel want) {
    Rng rng(7);
    model.Fit(split, &rng);
    const FrozenModel frozen = FrozenModel::Freeze(model, split);
    EXPECT_EQ(frozen.kernel(), want);
    EXPECT_FALSE(frozen.snapshot().has_tag_channel());
    ExpectFrozenMatchesLive(model, split, true);
  };
  // The nine baselines that declare scoring rows.
  const std::pair<const char*, ScoreKernel> declared[] = {
      {"BPRMF", ScoreKernel::kDot},
      {"NMF", ScoreKernel::kDot},
      {"LightGCN", ScoreKernel::kDot},
      {"NGCF", ScoreKernel::kDot},
      {"AGCN", ScoreKernel::kDot},
      {"CML", ScoreKernel::kNegSqDist},
      {"SML", ScoreKernel::kNegSqDist},
      {"HyperML", ScoreKernel::kNegLorentzSqDist},
      {"HGCF", ScoreKernel::kNegLorentzSqDist},
  };
  for (const auto& [name, kernel] : declared) {
    SCOPED_TRACE(name);
    const std::unique_ptr<Recommender> m = MakeModel(name, cfg);
    check(*m, kernel);
  }
}

TEST(FrozenModelTest, VirtualFallbackRoundTrip) {
  const DataSplit split = MakeSplit();
  HashModel model;
  const FrozenModel frozen = FrozenModel::Freeze(model, split);
  EXPECT_EQ(frozen.kernel(), ScoreKernel::kVirtual);
  ExpectFrozenMatchesLive(model, split, /*expect_native=*/false);
}

// The tag channel is checked both ways: it needs a distance kernel, and
// tag rows without a per-user alpha fail instead of scoring untagged.
TEST(FrozenModelDeathTest, TagChannelNeedsAlphaAndADistanceKernel) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  OwnedRows rows;
  rows.kernel = ScoreKernel::kNegSqDist;
  rows.users = Matrix(2, 4);
  rows.items = Matrix(3, 4);
  rows.users_tg = Matrix(2, 2);
  rows.items_tg = Matrix(3, 2);
  rows.alpha.assign(2, 0.5);
  ScoringSnapshot view = rows.view();
  view.alpha = {};
  EXPECT_DEATH(FrozenModel{view}, "without a per-user alpha");
  view = rows.view();
  view.kernel = ScoreKernel::kDot;
  EXPECT_DEATH(FrozenModel{view}, "needs a distance kernel");
  EXPECT_TRUE(FrozenModel(rows.view()).snapshot().has_tag_channel());
}

TEST(TopKHeapTest, MatchesPartialSortOnRandomScoresWithTiesAndNonFinite) {
  Rng rng(29);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.Uniform(200);
    std::vector<double> scores(n);
    for (double& s : scores) {
      const uint64_t kind = rng.Uniform(10);
      if (kind == 0) {
        s = std::numeric_limits<double>::quiet_NaN();
      } else if (kind == 1) {
        s = std::numeric_limits<double>::infinity();
      } else if (kind == 2) {
        s = kNegInf;
      } else {
        // Coarse grid → plenty of exact ties.
        s = static_cast<double>(rng.Uniform(8));
      }
    }
    // k spans empty, partial, full, and beyond-catalogue bounds.
    for (const size_t k : {size_t{0}, size_t{1}, size_t{10}, n, n + 5}) {
      TopKHeap heap(k);
      for (size_t v = 0; v < n; ++v) {
        heap.Offer(static_cast<uint32_t>(v), SanitizeScore(scores[v]));
      }
      std::vector<TopKEntry> got;
      heap.Finish(&got);
      const auto want = ReferenceTopK(scores, k, {});
      ASSERT_EQ(got, want) << "trial " << trial << " k " << k;
    }
  }
}

TEST(TopKTest, BlockedTopKMatchesReferenceWithExclusions) {
  const DataSplit split = MakeSplit();
  HyperMl model(TinyConfig());
  Rng rng(17);
  model.Fit(split, &rng);
  const FrozenModel frozen = FrozenModel::Freeze(model, split);

  TopKHeap heap;
  std::vector<double> scratch;
  std::vector<TopKEntry> got;
  std::vector<double> raw(split.num_items);
  const uint64_t pruned_before = ItemsPruned();
  for (uint32_t u = 0; u < split.num_users; ++u) {
    model.ScoreItems(u, std::span<double>(raw));
    const auto exclude = split.train.RowCols(u);
    // Tiny block size so a single user crosses many block boundaries.
    BlockedTopK(frozen, u, 10, exclude, &heap, &scratch, &got, /*block=*/7);
    ASSERT_EQ(got, ReferenceTopK(raw, 10, exclude)) << "user " << u;
  }
  // The bound fired, so the oracle check above covers pruned sweeps.
  EXPECT_GT(ItemsPruned(), pruned_before);
}

TEST(ResultCacheTest, HitMissAndLru) {
  ResultCache cache(2);
  const std::vector<TopKEntry> a = {{1, 0.5}}, b = {{2, 0.25}}, c = {{3, 0.1}};
  std::vector<TopKEntry> out;
  EXPECT_FALSE(cache.Get(1, 10, &out));
  cache.Put(1, 10, a);
  ASSERT_TRUE(cache.Get(1, 10, &out));
  EXPECT_EQ(out, a);
  // Same user, different k → distinct entries.
  EXPECT_FALSE(cache.Get(1, 5, &out));

  cache.Put(2, 10, b);
  ASSERT_TRUE(cache.Get(1, 10, &out));  // Refreshes user 1 → user 2 is LRU.
  cache.Put(3, 10, c);                  // Evicts user 2.
  EXPECT_FALSE(cache.Get(2, 10, &out));
  ASSERT_TRUE(cache.Get(3, 10, &out));
  EXPECT_EQ(out, c);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(BatchServerTest, CachedAndUncachedListsMatchReference) {
  const DataSplit split = MakeSplit();
  TaxoRecModel model(TinyConfig(), TaxoRecOptions{});
  Rng rng(5);
  model.Fit(split, &rng);

  ServeOptions opts;
  opts.cache_capacity = 16;
  opts.item_block = 32;
  opts.user_batch = 3;
  BatchServer server(model, split, opts);

  std::vector<ServeRequest> requests;
  for (uint32_t u = 0; u < split.num_users; u += 3) requests.push_back({u, 10});
  requests.push_back({0, 10});  // Duplicate → cache hit on the second batch.
  const uint64_t pruned_before = ItemsPruned();
  const auto first = server.ServeBatch(requests);
  // The bound fired, so the reference check below covers pruned sweeps.
  EXPECT_GT(ItemsPruned(), pruned_before);
  const auto second = server.ServeBatch(requests);
  ASSERT_EQ(first, second);
  EXPECT_GT(server.cache()->hits(), 0u);

  std::vector<double> raw(split.num_items);
  for (size_t i = 0; i < requests.size(); ++i) {
    model.ScoreItems(requests[i].user, std::span<double>(raw));
    ASSERT_EQ(first[i], ReferenceTopK(raw, requests[i].k,
                                      split.train.RowCols(requests[i].user)));
  }
}

TEST(BatchServerTest, ListsAreThreadCountInvariant) {
  ThreadCountGuard guard;
  const DataSplit split = MakeSplit();
  HyperMl model(TinyConfig());
  Rng rng(13);
  model.Fit(split, &rng);

  std::vector<ServeRequest> requests;
  for (uint32_t u = 0; u < split.num_users; ++u) {
    requests.push_back({u, 1 + u % 12});
  }
  ServeOptions opts;
  opts.user_batch = 4;
  opts.grain = 5;

  SetNumThreads(1);
  BatchServer server1(model, split, opts);
  const auto lists1 = server1.ServeBatch(requests);
  SetNumThreads(3);
  BatchServer server3(model, split, opts);
  const auto lists3 = server3.ServeBatch(requests);
  ASSERT_EQ(lists1, lists3);

  // A one-request batch answers exactly like the full batch.
  ASSERT_EQ(server3.ServeBatch({&requests[7], 1})[0], lists1[7]);
}

TEST(RecommendTest, TopKRanksNonFiniteScoresLast) {
  DataSplit split;
  split.num_users = 1;
  split.num_items = 10;
  split.num_tags = 1;
  split.train = CsrMatrix::FromPairs(1, 10, {{0, 0}});
  split.item_tags = CsrMatrix::FromPairs(10, 1, {});
  split.val_items.resize(1);
  split.test_items.resize(1);

  DefectiveModel model;
  RecommendOptions opts;
  opts.k = 10;
  const auto ranked = RecommendTopK(model, split, 0, opts);
  ASSERT_EQ(ranked.size(), 10u);
  // Items 1 (NaN), 4 (+Inf), 7 (-Inf) and 0 (train-excluded) sink to the
  // bottom at -Inf, ordered by id; every finite score ranks above them.
  for (size_t i = 0; i < 6; ++i) EXPECT_TRUE(std::isfinite(ranked[i].score));
  EXPECT_EQ(ranked[6].item, 0u);
  EXPECT_EQ(ranked[7].item, 1u);
  EXPECT_EQ(ranked[8].item, 4u);
  EXPECT_EQ(ranked[9].item, 7u);
  for (size_t i = 6; i < 10; ++i) EXPECT_EQ(ranked[i].score, kNegInf);
}

TEST(RecommendTest, AllUsersMatchesPerUserTopKAtAnyThreadCount) {
  ThreadCountGuard guard;
  const DataSplit split = MakeSplit();
  Cml model(TinyConfig());
  Rng rng(19);
  model.Fit(split, &rng);

  RecommendOptions opts;
  opts.k = 8;
  SetNumThreads(1);
  const auto lists1 = RecommendAllUsers(model, split, opts);
  SetNumThreads(3);
  const auto lists3 = RecommendAllUsers(model, split, opts);
  ASSERT_EQ(lists1, lists3);

  ASSERT_EQ(lists1.size(), split.num_users);
  for (uint32_t u = 0; u < split.num_users; ++u) {
    const auto ranked = RecommendTopK(model, split, u, opts);
    ASSERT_EQ(lists1[u].size(), ranked.size());
    for (size_t i = 0; i < ranked.size(); ++i) {
      ASSERT_EQ(lists1[u][i], ranked[i].item) << "user " << u;
    }
  }
}

// The virtual fallback must serve correctly too (full-row scoring inside
// the blocked kernel).
TEST(BatchServerTest, VirtualModelServesSameListsAsReference) {
  const DataSplit split = MakeSplit();
  HashModel model;
  BatchServer server(model, split);
  std::vector<double> raw(split.num_items);
  for (uint32_t u = 0; u < split.num_users; u += 7) {
    const ServeRequest request{u, 12};
    const auto got = server.ServeBatch({&request, 1})[0];
    model.ScoreItems(u, std::span<double>(raw));
    ASSERT_EQ(got, ReferenceTopK(raw, 12, split.train.RowCols(u)));
  }
}

}  // namespace
}  // namespace taxorec
