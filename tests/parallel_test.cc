// Tests for the deterministic thread-pool substrate: exact index coverage
// under adversarial grain sizes, ordered reduction, and bit-identical
// results of the parallelized hot paths (SpMM, ranking evaluation, k-means,
// one TaxoRec training epoch) at --threads=1 vs --threads=8.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "core/taxorec_model.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "hyperbolic/poincare.h"
#include "math/csr.h"
#include "math/matrix.h"
#include "math/rng.h"
#include "taxonomy/poincare_kmeans.h"

namespace taxorec {
namespace {

// Restores the global thread count on scope exit so suites stay isolated.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(GetNumThreads()) {}
  ~ThreadCountGuard() { SetNumThreads(saved_); }

 private:
  int saved_;
};

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  const size_t kBegin = 17;
  const size_t kEnd = 1017;
  for (int threads : {1, 2, 3, 8, 13}) {
    SetNumThreads(threads);
    for (size_t grain : {size_t{1}, size_t{3}, size_t{7}, size_t{64},
                         size_t{999}, size_t{1000}, size_t{5000}}) {
      std::vector<std::atomic<int>> hits(kEnd);
      for (auto& h : hits) h.store(0);
      ParallelFor(kBegin, kEnd, grain, [&](size_t b, size_t e) {
        ASSERT_LE(b, e);
        for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      });
      for (size_t i = 0; i < kEnd; ++i) {
        EXPECT_EQ(hits[i].load(), i >= kBegin ? 1 : 0)
            << "index " << i << " grain " << grain << " threads " << threads;
      }
    }
  }
}

TEST(ParallelForTest, EmptyAndSingletonRanges) {
  ThreadCountGuard guard;
  SetNumThreads(4);
  int calls = 0;
  ParallelFor(5, 5, 1, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> count{0};
  ParallelFor(7, 8, 3, [&](size_t b, size_t e) {
    EXPECT_EQ(b, 7u);
    EXPECT_EQ(e, 8u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForTest, WorkerIndexInRange) {
  ThreadCountGuard guard;
  SetNumThreads(5);
  std::atomic<bool> ok{true};
  ParallelForWorker(0, 1000, 8, [&](size_t, size_t, int worker) {
    if (worker < 0 || worker >= 5) ok.store(false);
  });
  EXPECT_TRUE(ok.load());
}

TEST(ParallelForTest, NestedCallsRunInline) {
  ThreadCountGuard guard;
  SetNumThreads(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  ParallelFor(0, 8, 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      // A nested region must not re-enter the pool (it would deadlock the
      // fixed-size pool); it runs inline on the current worker.
      ParallelFor(i * 8, (i + 1) * 8, 2,
                  [&](size_t bb, size_t ee) {
                    for (size_t j = bb; j < ee; ++j) hits[j].fetch_add(1);
                  });
    }
  });
  for (size_t j = 0; j < 64; ++j) EXPECT_EQ(hits[j].load(), 1);
}

TEST(ThreadLocalAccumulatorTest, OrderedReductionSumsAllChunks) {
  ThreadCountGuard guard;
  for (int threads : {1, 3, 8}) {
    SetNumThreads(threads);
    const size_t n = 4321;
    ThreadLocalAccumulator<int64_t> partial(0);
    ParallelForWorker(0, n, 7, [&](size_t b, size_t e, int worker) {
      for (size_t i = b; i < e; ++i) {
        partial.Local(worker) += static_cast<int64_t>(i);
      }
    });
    int64_t total = 0;
    for (int w = 0; w < threads; ++w) total += partial.Local(w);
    EXPECT_EQ(total, static_cast<int64_t>(n) * (n - 1) / 2)
        << "threads " << threads;
  }
}

TEST(ThreadLocalAccumulatorTest, ReductionIsDeterministicPerThreadCount) {
  ThreadCountGuard guard;
  SetNumThreads(8);
  Rng rng(99);
  std::vector<double> values(10000);
  for (double& v : values) v = rng.NextDouble() - 0.5;
  auto run = [&] {
    ThreadLocalAccumulator<double> partial(0.0);
    ParallelForWorker(0, values.size(), 64, [&](size_t b, size_t e, int w) {
      for (size_t i = b; i < e; ++i) partial.Local(w) += values[i];
    });
    double total = 0.0;
    for (int w = 0; w < 8; ++w) total += partial.Local(w);
    return total;
  };
  const double first = run();
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_EQ(first, run());  // bitwise equal: assignment is static
  }
}

// Pool utilization is always-on, so these assert on metric deltas (other
// suites and earlier tests may already have recorded regions).
TEST(PoolUtilizationTest, FannedOutRegionRecordsRegionChunksAndBusyTime) {
  ThreadCountGuard guard;
  constexpr int kWorkers = 4;
  SetNumThreads(kWorkers);
  auto& reg = MetricsRegistry::Instance();
  Counter* regions = reg.GetCounter("taxorec.pool.regions");
  Counter* chunks = reg.GetCounter("taxorec.pool.chunks");
  Histogram* imbalance = reg.GetHistogram(
      "taxorec.pool.imbalance", {1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0});
  const uint64_t regions_before = regions->value();
  const uint64_t chunks_before = chunks->value();
  const uint64_t observations_before = imbalance->count();
  uint64_t busy_before = 0;
  for (int w = 0; w < kWorkers; ++w) {
    busy_before += reg.GetCounter("taxorec.pool.worker." + std::to_string(w) +
                                  ".busy_us")
                       ->value();
  }

  // Spin on the clock so every worker's busy time clears the µs timer even
  // if the optimizer folds arithmetic work away.
  ParallelFor(0, 64, 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::microseconds(50);
      while (std::chrono::steady_clock::now() < until) {
      }
    }
  });

  EXPECT_EQ(regions->value(), regions_before + 1);
  EXPECT_EQ(chunks->value(), chunks_before + 64);
  EXPECT_EQ(imbalance->count(), observations_before + 1);
  uint64_t busy_after = 0;
  for (int w = 0; w < kWorkers; ++w) {
    busy_after += reg.GetCounter("taxorec.pool.worker." + std::to_string(w) +
                                 ".busy_us")
                      ->value();
  }
  EXPECT_GT(busy_after, busy_before);
}

TEST(PoolUtilizationTest, SequentialPathRecordsNoRegion) {
  ThreadCountGuard guard;
  SetNumThreads(1);
  Counter* regions =
      MetricsRegistry::Instance().GetCounter("taxorec.pool.regions");
  const uint64_t before = regions->value();
  int calls = 0;
  ParallelFor(0, 1000, 8, [&](size_t, size_t) { ++calls; });
  EXPECT_GT(calls, 0);
  EXPECT_EQ(regions->value(), before);  // 1-thread path has no pool cost
}

CsrMatrix PowerLawCsr(size_t rows, size_t cols, size_t nnz, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::tuple<uint32_t, uint32_t, double>> triplets;
  triplets.reserve(nnz);
  for (size_t i = 0; i < nnz; ++i) {
    // Skew rows so chunked scheduling sees imbalanced work.
    const auto r = static_cast<uint32_t>(
        static_cast<size_t>(rng.NextDouble() * rng.NextDouble() * rows));
    const auto c = static_cast<uint32_t>(rng.Uniform(cols));
    triplets.emplace_back(std::min<uint32_t>(r, rows - 1), c,
                          rng.NextDouble());
  }
  return CsrMatrix::FromTriplets(rows, cols, std::move(triplets));
}

TEST(ParallelKernelsTest, SpmmBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const CsrMatrix sparse = PowerLawCsr(300, 200, 4000, 5);
  Matrix dense(200, 16);
  Rng rng(6);
  dense.FillGaussian(&rng, 1.0);

  SetNumThreads(1);
  Matrix out1;
  sparse.Multiply(dense, &out1);
  Matrix accum1 = out1;
  sparse.MultiplyAccum(dense, 0.25, &accum1);

  SetNumThreads(8);
  Matrix out8;
  sparse.Multiply(dense, &out8);
  Matrix accum8 = out8;
  sparse.MultiplyAccum(dense, 0.25, &accum8);

  ASSERT_EQ(out1.rows(), out8.rows());
  const auto f1 = out1.flat();
  const auto f8 = out8.flat();
  for (size_t i = 0; i < f1.size(); ++i) ASSERT_EQ(f1[i], f8[i]);
  const auto a1 = accum1.flat();
  const auto a8 = accum8.flat();
  for (size_t i = 0; i < a1.size(); ++i) ASSERT_EQ(a1[i], a8[i]);
}

TEST(ParallelKernelsTest, PoincareKMeansBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng init(11);
  Matrix points(120, 6);
  for (size_t i = 0; i < points.rows(); ++i) {
    poincare::RandomPoint(&init, 0.8, points.row(i));
  }
  std::vector<uint32_t> subset(points.rows());
  std::iota(subset.begin(), subset.end(), 0u);

  SetNumThreads(1);
  Rng rng1(17);
  const KMeansResult r1 = PoincareKMeans(points, subset, 4, &rng1);
  SetNumThreads(8);
  Rng rng8(17);
  const KMeansResult r8 = PoincareKMeans(points, subset, 4, &rng8);

  EXPECT_EQ(r1.assignment, r8.assignment);
  EXPECT_EQ(r1.iterations, r8.iterations);
  const auto c1 = r1.centroids.flat();
  const auto c8 = r8.centroids.flat();
  ASSERT_EQ(c1.size(), c8.size());
  for (size_t i = 0; i < c1.size(); ++i) ASSERT_EQ(c1[i], c8[i]);
}

// Deterministic stand-in recommender: scores depend only on (user, item).
class HashScorer : public Recommender {
 public:
  std::string name() const override { return "HashScorer"; }
  void ScoreItems(uint32_t user, std::span<double> out) const override {
    for (size_t v = 0; v < out.size(); ++v) {
      uint64_t h = (static_cast<uint64_t>(user) << 32) | v;
      h ^= h >> 33;
      h *= 0xFF51AFD7ED558CCDULL;
      h ^= h >> 33;
      out[v] = static_cast<double>(h >> 11) * 0x1.0p-53;
    }
  }
};

DataSplit SmallSplit() {
  SyntheticConfig cfg;
  cfg.num_users = 80;
  cfg.num_items = 150;
  cfg.num_tags = 16;
  cfg.seed = 29;
  return TemporalSplit(GenerateSynthetic(cfg));
}

void ExpectEvalBitIdentical(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.num_eval_users, b.num_eval_users);
  ASSERT_EQ(a.recall.size(), b.recall.size());
  for (size_t i = 0; i < a.recall.size(); ++i) {
    EXPECT_EQ(a.recall[i], b.recall[i]);
    EXPECT_EQ(a.ndcg[i], b.ndcg[i]);
  }
  EXPECT_EQ(a.per_user_recall, b.per_user_recall);
  EXPECT_EQ(a.per_user_ndcg, b.per_user_ndcg);
}

TEST(ParallelKernelsTest, EvaluateRankingBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const DataSplit split = SmallSplit();
  HashScorer model;

  SetNumThreads(1);
  const EvalResult r1 = EvaluateRanking(model, split);
  const EvalResult v1 = EvaluateRanking(model, split, {.use_test = false});
  SetNumThreads(8);
  const EvalResult r8 = EvaluateRanking(model, split);
  const EvalResult v8 = EvaluateRanking(model, split, {.use_test = false});

  ExpectEvalBitIdentical(r1, r8);
  ExpectEvalBitIdentical(v1, v8);
  EXPECT_GT(r1.num_eval_users, 0u);
}

TEST(ParallelKernelsTest, TaxoRecFitBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const DataSplit split = SmallSplit();
  ModelConfig cfg;
  cfg.dim = 16;
  cfg.tag_dim = 6;
  cfg.epochs = 1;
  cfg.batches_per_epoch = 3;
  cfg.batch_size = 64;
  cfg.tag_warmup_per_tag = 10;
  cfg.seed = 31;

  auto train = [&] {
    TaxoRecModel model(cfg, TaxoRecOptions{});
    Rng rng(cfg.seed);
    model.Fit(split, &rng);
    return model.SaveCheckpoint();
  };

  SetNumThreads(1);
  const Checkpoint ckpt1 = train();
  SetNumThreads(8);
  const Checkpoint ckpt8 = train();

  for (const char* name : {"users_ir", "items_ir", "users_tg", "tags"}) {
    const Matrix* m1 = ckpt1.Get(name);
    const Matrix* m8 = ckpt8.Get(name);
    ASSERT_NE(m1, nullptr) << name;
    ASSERT_NE(m8, nullptr) << name;
    const auto f1 = m1->flat();
    const auto f8 = m8->flat();
    ASSERT_EQ(f1.size(), f8.size()) << name;
    for (size_t i = 0; i < f1.size(); ++i) {
      ASSERT_EQ(f1[i], f8[i]) << name << " element " << i;
    }
  }
}

}  // namespace
}  // namespace taxorec
