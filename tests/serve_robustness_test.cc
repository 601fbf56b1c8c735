// Overload-robustness drills for the serving subsystem (DESIGN.md §12):
// bounded admission and cost budgets, deadline shedding before and mid
// batch, the precision degradation ladder with its hysteresis and
// load-recede step-up guard, graceful drain, the serve-path fault sites,
// request-log hardening, and the guarantee that none of it perturbs the
// unpressured serving path — bit-identical lists at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <thread>

#include "baselines/recommender.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "math/rng.h"
#include "scoring_rows.h"
#include "serve/request_io.h"
#include "serve/result_cache.h"
#include "serve/server.h"

namespace taxorec {
namespace {

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(GetNumThreads()) {}
  ~ThreadCountGuard() { SetNumThreads(saved_); }

 private:
  int saved_;
};

/// Every drill that arms a fault must disarm it even on assertion failure.
class FaultGuard {
 public:
  ~FaultGuard() { FaultInjector::Instance().Reset(); }
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

/// Deterministic virtual-only model that counts kernel invocations, so
/// tests can assert a shed request never reached scoring.
class CountingModel : public Recommender {
 public:
  std::string name() const override { return "Counting"; }
  void ScoreItems(uint32_t user, std::span<double> out) const override {
    scored_.fetch_add(1, std::memory_order_relaxed);
    for (size_t v = 0; v < out.size(); ++v) {
      out[v] = std::sin(static_cast<double>(user * 131 + v * 17));
    }
  }
  uint64_t scored() const { return scored_.load(std::memory_order_relaxed); }

 private:
  mutable std::atomic<uint64_t> scored_{0};
};

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Instance().GetCounter(name)->value();
}

ServeRequest Req(uint32_t user, size_t k = 5) {
  ServeRequest req;
  req.user = user;
  req.k = k;
  return req;
}

// ---------------------------------------------------------------------------
// AdmissionController mechanics.

TEST(AdmissionControllerTest, BoundsQueueByCount) {
  AdmissionOptions opts;
  opts.max_queue = 4;
  AdmissionController ctl(opts);
  for (uint32_t u = 0; u < 4; ++u) {
    EXPECT_EQ(ctl.Offer(Req(u)), AdmitResult::kAdmitted);
  }
  EXPECT_EQ(ctl.Offer(Req(4)), AdmitResult::kShedQueueFull);
  EXPECT_EQ(ctl.Offer(Req(5)), AdmitResult::kShedQueueFull);
  EXPECT_EQ(ctl.queue_depth(), 4u);
  EXPECT_EQ(ctl.queued_cost(), 4u * 5u);

  // FIFO order, and taking frees capacity.
  std::vector<ServeRequest> taken;
  EXPECT_EQ(ctl.Take(2, &taken), 2u);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].user, 0u);
  EXPECT_EQ(taken[1].user, 1u);
  EXPECT_EQ(ctl.queue_depth(), 2u);
  EXPECT_EQ(ctl.Offer(Req(6)), AdmitResult::kAdmitted);
}

TEST(AdmissionControllerTest, BoundsQueueByCost) {
  AdmissionOptions opts;
  opts.max_queued_cost = 25;
  AdmissionController ctl(opts);
  EXPECT_EQ(ctl.Offer(Req(0, 10)), AdmitResult::kAdmitted);
  EXPECT_EQ(ctl.Offer(Req(1, 10)), AdmitResult::kAdmitted);
  // 20 + 10 > 25: shed on cost even though the count is unbounded.
  EXPECT_EQ(ctl.Offer(Req(2, 10)), AdmitResult::kShedCost);
  EXPECT_EQ(ctl.Offer(Req(3, 5)), AdmitResult::kAdmitted);
  EXPECT_EQ(ctl.queued_cost(), 25u);
}

TEST(AdmissionControllerTest, DrainRejectsNewWorkKeepsQueued) {
  AdmissionController ctl(AdmissionOptions{});
  EXPECT_EQ(ctl.Offer(Req(0)), AdmitResult::kAdmitted);
  ctl.BeginDrain();
  EXPECT_TRUE(ctl.draining());
  EXPECT_EQ(ctl.Offer(Req(1)), AdmitResult::kShedDraining);
  std::vector<ServeRequest> taken;
  EXPECT_EQ(ctl.Take(8, &taken), 1u);
  EXPECT_EQ(taken[0].user, 0u);
}

TEST(AdmissionControllerTest, LadderStepsRequireConsecutiveObservations) {
  AdmissionOptions opts;
  opts.degrade = true;
  opts.hysteresis_batches = 3;
  opts.pressure_window = 1;  // pressure = depth x last per-request time
  AdmissionController ctl(opts);
  const auto high = [&] { ctl.ObserveBatch(0.06, 1, 1); };  // 60ms wait
  const auto band = [&] { ctl.ObserveBatch(0.03, 1, 1); };  // between
  high();
  high();
  EXPECT_EQ(ctl.degrade_steps(), 0);
  band();  // resets the high run: the band is hysteresis, not a vote
  high();
  high();
  EXPECT_EQ(ctl.degrade_steps(), 0);
  high();  // third consecutive high
  EXPECT_EQ(ctl.degrade_steps(), 1);
  high();
  high();
  high();
  EXPECT_EQ(ctl.degrade_steps(), 2);
  high();
  high();
  high();
  EXPECT_EQ(ctl.degrade_steps(), 2);  // clamped at the bottom rung
}

TEST(AdmissionControllerTest, StepUpWaitsForLoadToRecede) {
  AdmissionOptions opts;
  opts.degrade = true;
  opts.hysteresis_batches = 1;
  opts.pressure_window = 1;
  AdmissionController ctl(opts);

  // Build an offered-load EWMA, then step down under pressure.
  const auto offer_n = [&](int n) {
    for (int i = 0; i < n; ++i) ctl.Offer(Req(0));
  };
  for (int i = 0; i < 3; ++i) {
    offer_n(100);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // Band pressure: feeds the EWMA without moving the ladder.
    ctl.ObserveBatch(0.03, 1, 1);
  }
  EXPECT_EQ(ctl.degrade_steps(), 0);
  offer_n(100);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ctl.ObserveBatch(0.06, 1, 1);
  ASSERT_EQ(ctl.degrade_steps(), 1);
  EXPECT_GT(ctl.OfferedRate(), 0.0);

  // Pressure is low at the degraded tier, but demand has not receded
  // (if anything it grew): the guard must hold the ladder down.
  for (int i = 0; i < 5; ++i) {
    offer_n(5000);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ctl.ObserveBatch(1e-6, 1, 0);
    EXPECT_EQ(ctl.degrade_steps(), 1);
  }

  // Demand stops; the EWMA decays and the ladder recovers.
  int steps = 1;
  for (int i = 0; i < 40 && steps > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ctl.ObserveBatch(1e-6, 1, 0);
    steps = ctl.degrade_steps();
  }
  EXPECT_EQ(steps, 0);
}

// ---------------------------------------------------------------------------
// Deadline budgets through the server.

TEST(ServeDeadlineTest, ExpiredBudgetShedsBeforeScoring) {
  const DataSplit split = MakeSplit();
  CountingModel model;
  BatchServer server(model, split);
  const uint64_t scored_before = model.scored();
  const uint64_t shed_before = CounterValue("taxorec.serve.shed.deadline");

  std::vector<ServeRequest> requests = {Req(0), Req(1)};
  requests[0].deadline = ServeClock::now() - std::chrono::milliseconds(1);
  const auto results = server.ServeBatchEx(requests);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, ServeStatus::kShedDeadline);
  EXPECT_TRUE(results[0].items.empty());
  EXPECT_EQ(results[1].status, ServeStatus::kOk);
  EXPECT_FALSE(results[1].items.empty());
  // The dead request must not have cost a single kernel invocation.
  EXPECT_EQ(model.scored() - scored_before, 1u);
  EXPECT_EQ(CounterValue("taxorec.serve.shed.deadline") - shed_before, 1u);
}

TEST(ServeDeadlineTest, MidBatchStopShedsLaterSubBatches) {
  ThreadCountGuard guard;
  SetNumThreads(1);  // sub-batches run in order: the stall is front-loaded
  FaultGuard faults;
  const DataSplit split = MakeSplit();
  CountingModel model;
  ServeOptions opts;
  opts.user_batch = 8;
  BatchServer server(model, split, opts);
  const uint64_t missed_before = CounterValue("taxorec.serve.deadline_missed");

  // 16 requests, one shared 20ms budget. The slow-kernel fault stalls the
  // first sub-batch 25ms, so the second sub-batch's pre-score clock check
  // finds the budget spent: served requests come back late, the rest are
  // shed without touching the kernel.
  std::vector<ServeRequest> requests;
  const auto deadline = DeadlineAfterMs(20.0, ServeClock::now());
  for (uint32_t u = 0; u < 16; ++u) {
    requests.push_back(Req(u));
    requests.back().deadline = deadline;
  }
  FaultInjector::Instance().Arm(faults::kServeSlowKernel, -1, 1);
  const auto results = server.ServeBatchEx(requests);
  ASSERT_EQ(results.size(), 16u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(results[i].status, ServeStatus::kLate) << "request " << i;
    EXPECT_FALSE(results[i].items.empty());
  }
  for (size_t i = 8; i < 16; ++i) {
    EXPECT_EQ(results[i].status, ServeStatus::kShedDeadline)
        << "request " << i;
    EXPECT_TRUE(results[i].items.empty());
  }
  EXPECT_EQ(FaultInjector::Instance().fired(faults::kServeSlowKernel), 1);
  EXPECT_EQ(CounterValue("taxorec.serve.deadline_missed") - missed_before,
            8u);
}

// ---------------------------------------------------------------------------
// Graceful drain and the serve-path fault sites.

TEST(ServeDrainTest, FinishesQueuedRejectsNewInvalidatesCache) {
  const DataSplit split = MakeSplit();
  CountingModel model;
  ServeOptions opts;
  opts.cache_capacity = 8;
  opts.admission.max_queue = 16;
  BatchServer server(model, split, opts);

  for (uint32_t u = 0; u < 3; ++u) {
    ASSERT_EQ(server.Submit(Req(u)), AdmitResult::kAdmitted);
  }
  const auto drained = server.Drain();
  ASSERT_EQ(drained.size(), 3u);
  for (size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i].status, ServeStatus::kOk);
    EXPECT_FALSE(drained[i].items.empty());
    EXPECT_EQ(drained[i].request.user, static_cast<uint32_t>(i));
  }

  EXPECT_TRUE(server.draining());
  EXPECT_EQ(server.Submit(Req(7)), AdmitResult::kShedDraining);
  const auto rejected = server.ServeBatchEx(std::vector<ServeRequest>{Req(8)});
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].status, ServeStatus::kShedDraining);
  EXPECT_TRUE(rejected[0].items.empty());

  ASSERT_NE(server.cache(), nullptr);
  EXPECT_EQ(server.cache()->generation(), 1u);
  EXPECT_TRUE(server.Drain().empty());  // idempotent
}

TEST(ServeFaultTest, QueueFullFaultShedsAtAdmission) {
  FaultGuard faults;
  AdmissionController ctl(AdmissionOptions{});  // unbounded queue
  FaultInjector::Instance().Arm(faults::kServeQueueFull, -1, 2);
  EXPECT_EQ(ctl.Offer(Req(0)), AdmitResult::kShedQueueFull);
  EXPECT_EQ(ctl.Offer(Req(1)), AdmitResult::kShedQueueFull);
  EXPECT_EQ(ctl.Offer(Req(2)), AdmitResult::kAdmitted);
  EXPECT_EQ(FaultInjector::Instance().fired(faults::kServeQueueFull), 2);
}

TEST(ServeFaultTest, SnapshotLoadFailureFallsBackToDouble) {
  Rng rng(5);
  OwnedRows snap;
  snap.kernel = ScoreKernel::kDot;
  snap.users = Matrix(6, 8);
  snap.items = Matrix(40, 8);
  snap.users.FillGaussian(&rng, 0.1);
  snap.items.FillGaussian(&rng, 0.1);

  const FrozenModel clean(snap.view(), PrecisionTier::kFloat32);
  ASSERT_EQ(clean.tier(), PrecisionTier::kFloat32);

  FaultGuard faults;
  const uint64_t failures_before =
      CounterValue("taxorec.serve.snapshot_load_failures");
  FaultInjector::Instance().Arm(faults::kServeSnapshotLoad, -1, 1);
  const FrozenModel faulty(snap.view(), PrecisionTier::kFloat32);
  // The compact build failed; the model must still serve, at full
  // precision, instead of dying at load time.
  EXPECT_EQ(faulty.tier(), PrecisionTier::kDouble);
  EXPECT_TRUE(faulty.native());
  EXPECT_EQ(CounterValue("taxorec.serve.snapshot_load_failures") -
                failures_before,
            1u);

  std::vector<double> reference_row(40), faulty_row(40);
  const FrozenModel reference(snap.view(), PrecisionTier::kDouble);
  reference.ScoreAll(3, reference_row);
  faulty.ScoreAll(3, faulty_row);
  EXPECT_EQ(reference_row, faulty_row);  // bit-identical to the double path
}

// ---------------------------------------------------------------------------
// No pressure, no faults: the robust configuration must not change a
// single served bit, at any thread count.

TEST(ServeRobustnessTest, UnpressuredPathBitIdenticalAcrossThreads) {
  ThreadCountGuard guard;
  const DataSplit split = MakeSplit();
  CountingModel model;

  std::vector<ServeRequest> requests;
  for (uint32_t u = 0; u < split.num_users; ++u) {
    requests.push_back(Req(u, 7));
  }

  SetNumThreads(1);
  BatchServer plain(model, split);
  const auto reference = plain.ServeBatch(requests);

  const uint64_t degraded_before = CounterValue("taxorec.serve.degraded");
  for (int threads : {1, 2, 5}) {
    SetNumThreads(threads);
    ServeOptions opts;
    opts.admission.max_queue = 1024;
    opts.admission.degrade = true;
    BatchServer robust(model, split, opts);
    const auto results = robust.ServeBatchEx(requests);
    ASSERT_EQ(results.size(), reference.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].status, ServeStatus::kOk);
      EXPECT_EQ(results[i].tier, robust.model().tier());
      ASSERT_EQ(results[i].items.size(), reference[i].size())
          << "threads=" << threads << " request " << i;
      for (size_t j = 0; j < results[i].items.size(); ++j) {
        EXPECT_EQ(results[i].items[j].item, reference[i][j].item);
        EXPECT_EQ(results[i].items[j].score, reference[i][j].score)
            << "threads=" << threads << " request " << i << " rank " << j;
      }
    }
  }
  EXPECT_EQ(CounterValue("taxorec.serve.degraded"), degraded_before);
}

// ---------------------------------------------------------------------------
// Result-cache invalidation.

TEST(ResultCacheTest, InvalidateDropsAllEntriesLazily) {
  ResultCache cache(2);
  const std::vector<TopKEntry> list_a = {{1, 0.9}, {2, 0.8}};
  const std::vector<TopKEntry> list_b = {{3, 0.7}};
  cache.Put(10, 5, list_a);
  cache.Put(11, 5, list_b);
  std::vector<TopKEntry> out;
  ASSERT_TRUE(cache.Get(10, 5, &out));

  cache.Invalidate();
  EXPECT_EQ(cache.generation(), 1u);
  // Every pre-invalidation key misses; the entries are still resident
  // (lazy eviction) but unreachable.
  EXPECT_FALSE(cache.Get(10, 5, &out));
  EXPECT_FALSE(cache.Get(11, 5, &out));
  EXPECT_EQ(cache.size(), 2u);

  // New insertions evict the stale entries LRU-first and are served from
  // the new generation.
  cache.Put(10, 5, list_b);
  cache.Put(12, 5, list_a);
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.Get(10, 5, &out));
  EXPECT_EQ(out.size(), list_b.size());
  ASSERT_TRUE(cache.Get(12, 5, &out));
  EXPECT_EQ(out.size(), list_a.size());

  // A second invalidation hides the refilled entries too.
  cache.Invalidate();
  EXPECT_EQ(cache.generation(), 2u);
  EXPECT_FALSE(cache.Get(10, 5, &out));
  EXPECT_FALSE(cache.Get(12, 5, &out));
}

TEST(ResultCacheTest, ExportsProbeCounters) {
  const DataSplit split = MakeSplit();
  CountingModel model;
  ServeOptions opts;
  opts.cache_capacity = 16;
  BatchServer server(model, split, opts);

  const uint64_t hits_before = CounterValue("taxorec.serve.cache.hits");
  const uint64_t misses_before = CounterValue("taxorec.serve.cache.misses");
  const std::vector<ServeRequest> batch = {Req(1), Req(2), Req(3)};

  server.ServeBatchEx(batch);
  EXPECT_EQ(CounterValue("taxorec.serve.cache.hits") - hits_before, 0u);
  EXPECT_EQ(CounterValue("taxorec.serve.cache.misses") - misses_before, 3u);

  const uint64_t scored_before = model.scored();
  server.ServeBatchEx(batch);
  EXPECT_EQ(CounterValue("taxorec.serve.cache.hits") - hits_before, 3u);
  EXPECT_EQ(CounterValue("taxorec.serve.cache.misses") - misses_before, 3u);
  EXPECT_EQ(model.scored(), scored_before);  // hits never reach the kernel
}

/// Native dot-product export so the degradation rungs actually build —
/// the ladder cannot step a kVirtual snapshot below double.
class NativeDotModel : public Recommender {
 public:
  NativeDotModel(size_t users, size_t items, uint64_t seed)
      : users_(users, 8), items_(items, 8) {
    Rng rng(seed);
    users_.FillGaussian(&rng, 0.1);
    items_.FillGaussian(&rng, 0.1);
  }
  std::string name() const override { return "NativeDot"; }

 private:
  ScoringSnapshot scoring_rows() const override {
    return {ScoreKernel::kDot, &users_, &items_};
  }

  Matrix users_;
  Matrix items_;
};

TEST(ResultCacheTest, DegradedBatchBypassesCacheAndCounts) {
  const DataSplit split = MakeSplit();
  NativeDotModel model(split.num_users, split.num_items, 23);
  ServeOptions opts;
  opts.cache_capacity = 16;
  opts.admission.degrade = true;
  opts.admission.hysteresis_batches = 1;
  opts.admission.pressure_window = 1;
  BatchServer server(model, split, opts);
  ASSERT_EQ(server.model().tier(), PrecisionTier::kDouble);

  const std::vector<ServeRequest> batch = {Req(1), Req(2), Req(3)};
  server.ServeBatchEx(batch);  // fills the cache at the configured tier

  // One high-pressure observation steps the ladder down (hysteresis 1).
  server.admission()->ObserveBatch(0.06, 1, 1);
  ASSERT_GE(server.admission()->degrade_steps(), 1);
  ASSERT_EQ(server.effective_tier(), PrecisionTier::kFloat32);

  const uint64_t hits_before = CounterValue("taxorec.serve.cache.hits");
  const uint64_t bypass_before = CounterValue("taxorec.serve.cache.bypass");
  const auto degraded = server.ServeBatchEx(batch);
  // The cached double-tier lists were never probed: a degraded batch must
  // not serve (or overwrite) lists from another tier.
  EXPECT_EQ(CounterValue("taxorec.serve.cache.hits") - hits_before, 0u);
  EXPECT_EQ(CounterValue("taxorec.serve.cache.bypass") - bypass_before, 3u);
  for (const ServeResult& r : degraded) {
    EXPECT_EQ(r.status, ServeStatus::kOk);
    EXPECT_EQ(r.tier, PrecisionTier::kFloat32);
  }
}

// ---------------------------------------------------------------------------
// Request-log hardening.

TEST(RequestIoTest, SkipsMalformedLinesAndCounts) {
  const std::string path =
      ::testing::TempDir() + "/taxorec_requests_mixed.jsonl";
  {
    std::ofstream out(path);
    out << "{\"user\": 3}\n"
        << "not json at all\n"
        << "{\"user\": 999999}\n"           // out of range
        << "{\"user\": 4, \"k\": 3}\n"
        << "{\"user\": \"xyz\"}\n"          // non-numeric
        << "\n"                              // blank lines are not requests
        << "{\"user\": 5, \"k\": 0}\n";     // k must be positive
  }
  const uint64_t bad_before = CounterValue("taxorec.serve.bad_requests");
  RequestLogStats stats;
  auto loaded = LoadRequestsJsonl(path, /*default_k=*/10, /*num_users=*/60,
                                  &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value()[0].user, 3u);
  EXPECT_EQ(loaded.value()[0].k, 10u);  // default applied
  EXPECT_EQ(loaded.value()[1].user, 4u);
  EXPECT_EQ(loaded.value()[1].k, 3u);
  EXPECT_EQ(stats.total_lines, 6u);
  EXPECT_EQ(stats.bad_lines, 4u);
  EXPECT_EQ(CounterValue("taxorec.serve.bad_requests") - bad_before, 4u);
}

TEST(RequestIoTest, AllMalformedIsAnError) {
  const std::string path =
      ::testing::TempDir() + "/taxorec_requests_bad.jsonl";
  {
    std::ofstream out(path);
    out << "garbage\n{\"k\": 5}\n";
  }
  RequestLogStats stats;
  const auto loaded =
      LoadRequestsJsonl(path, /*default_k=*/10, /*num_users=*/60, &stats);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stats.bad_lines, 2u);

  const auto missing = LoadRequestsJsonl(
      ::testing::TempDir() + "/taxorec_requests_nonexistent.jsonl", 10, 60,
      nullptr);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace taxorec
