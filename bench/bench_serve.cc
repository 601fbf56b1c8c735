// Serving-path benchmark: the seed ranking loop (per-user full score row +
// iota + partial_sort, sequential over users) against the serving subsystem
// (frozen snapshot, blocked top-K heaps, batched fan-out over the thread
// pool), with a bit-identity check between the two, plus a cached-replay
// phase measuring the LRU result cache.
//
// Writes BENCH_serve.json. `--quick` shrinks the catalogue for the ctest
// bench smoke, which bench_compare gates against
// bench/baselines/BENCH_serve.baseline.json (the *_seconds keys, plus a
// second gate over the overload section's p99 ratio and shed rate).
// Latency percentiles are reported in *_ms keys, which the wall-time gate
// ignores — they jitter far more than the aggregate timings.
//
// The overload section (DESIGN.md §12) replays an open-loop arrival sweep:
// requests arrive on a fixed schedule at a multiple of the measured
// saturation rate, regardless of whether the server keeps up. At 2× the
// robust configuration (bounded queue + deadlines + degradation ladder)
// sheds the excess explicitly and keeps served-request p99 within a small
// factor of the unloaded p99, while the pre-overload path (unbounded
// queueing, full precision) lets latency grow without bound. A final
// timeline run replays the overload episode with a TimeseriesRecorder
// attached, writing BENCH_serve.stats.jsonl — the window-by-window view of
// the ladder stepping down under saturation and recovering after
// (telemetry_report --stats renders it; the max windowed p99 is gated).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <numeric>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/timeseries.h"
#include "data/synthetic.h"
#include "eval/recommend.h"
#include "hyperbolic/lorentz.h"
#include "math/rng.h"
#include "serve/kernels_f32.h"
#include "serve/server.h"

namespace taxorec {
namespace {

/// Dot-product stub with a native serving export: the scoring arithmetic is
/// trivial, so the timings isolate the ranking machinery itself.
class DotScorer : public Recommender {
 public:
  DotScorer(Matrix users, Matrix items)
      : users_(std::move(users)), items_(std::move(items)) {}
  std::string name() const override { return "DotScorer"; }

 private:
  ScoringSnapshot scoring_rows() const override {
    return {ScoreKernel::kDot, &users_, &items_};
  }

  Matrix users_;
  Matrix items_;
};

/// Lorentz-distance stub (HyperML-shaped): the per-pair kernel is an order
/// of magnitude heavier, the regime where batching matters less and the
/// heap matters more. Given tag rows and a per-user alpha it is
/// TaxoRec-shaped (Eq. 17): the item-channel distance plus alpha_u times a
/// tag-channel distance, so the exact sweep runs the double tier's
/// two-channel prune test.
class LorentzScorer : public Recommender {
 public:
  LorentzScorer(Matrix users, Matrix items, Matrix users_tg = {},
                Matrix items_tg = {}, std::vector<double> alpha = {})
      : users_(std::move(users)),
        items_(std::move(items)),
        users_tg_(std::move(users_tg)),
        items_tg_(std::move(items_tg)),
        alpha_(std::move(alpha)) {}
  std::string name() const override { return "LorentzScorer"; }

 private:
  ScoringSnapshot scoring_rows() const override {
    if (alpha_.empty()) {
      return {ScoreKernel::kNegLorentzSqDist, &users_, &items_};
    }
    return {ScoreKernel::kNegLorentzSqDist, &users_, &items_, &users_tg_,
            &items_tg_, alpha_};
  }

  Matrix users_;
  Matrix items_;
  Matrix users_tg_;
  Matrix items_tg_;
  std::vector<double> alpha_;
};

/// The seed implementation of RecommendAllUsers, verbatim modulo the
/// non-finite sanitize (which the fixed reference path also performs):
/// sequential over users, one full score row + index permutation each.
std::vector<std::vector<uint32_t>> SeedRecommendAllUsers(
    const Recommender& model, const DataSplit& split, size_t k) {
  std::vector<std::vector<uint32_t>> out(split.num_users);
  for (uint32_t u = 0; u < split.num_users; ++u) {
    std::vector<double> scores(split.num_items);
    model.ScoreItems(u, std::span<double>(scores));
    for (double& x : scores) {
      if (!std::isfinite(x)) x = -std::numeric_limits<double>::infinity();
    }
    for (uint32_t v : split.train.RowCols(u)) {
      scores[v] = -std::numeric_limits<double>::infinity();
    }
    std::vector<uint32_t> order(split.num_items);
    std::iota(order.begin(), order.end(), 0u);
    const size_t top = std::min(k, order.size());
    std::partial_sort(order.begin(), order.begin() + top, order.end(),
                      [&](uint32_t a, uint32_t b) {
                        if (scores[a] != scores[b]) {
                          return scores[a] > scores[b];
                        }
                        return a < b;
                      });
    out[u].assign(order.begin(), order.begin() + top);
  }
  return out;
}

struct PathTimings {
  double seed_seconds = 0.0;
  double serve_seconds = 0.0;
};

PathTimings TimeRankingPaths(const Recommender& model, const DataSplit& split,
                             size_t k, int reps) {
  // Bit-identity first: the ISSUE's acceptance bar. Checked outside the
  // timed region.
  const auto seed_lists = SeedRecommendAllUsers(model, split, k);
  RecommendOptions opts;
  opts.k = k;
  const auto serve_lists = RecommendAllUsers(model, split, opts);
  TAXOREC_CHECK_MSG(seed_lists == serve_lists,
                    "serve path diverged from the seed ranking");

  PathTimings t;
  std::vector<std::vector<uint32_t>> sink;
  t.seed_seconds = bench::TimeBestSeconds(
      reps, [&] { sink = SeedRecommendAllUsers(model, split, k); });
  t.serve_seconds = bench::TimeBestSeconds(
      reps, [&] { sink = RecommendAllUsers(model, split, opts); });
  return t;
}

struct CacheReplay {
  double qps = 0.0;
  double hit_rate = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// Replays a skewed random request stream through a cached BatchServer in
/// fixed-size batches; per-batch wall times give exact latency percentiles.
CacheReplay RunCacheReplay(const Recommender& model, const DataSplit& split,
                           size_t k, size_t num_requests) {
  ServeOptions opts;
  opts.cache_capacity = split.num_users / 2 + 1;
  BatchServer server(model, split, opts);

  Rng rng(77);
  std::vector<ServeRequest> requests(num_requests);
  for (auto& req : requests) {
    // Zipf-ish skew: half the traffic hits an eighth of the users.
    const uint64_t hot = rng.Uniform(2);
    const size_t pool = hot ? std::max<size_t>(1, split.num_users / 8)
                            : split.num_users;
    req.user = static_cast<uint32_t>(rng.Uniform(pool));
    req.k = k;
  }

  constexpr size_t kBatch = 64;
  std::vector<double> batch_ms;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t b0 = 0; b0 < requests.size(); b0 += kBatch) {
    const size_t b1 = std::min(b0 + kBatch, requests.size());
    const auto bt0 = std::chrono::steady_clock::now();
    const auto lists = server.ServeBatch(std::span<const ServeRequest>(
        requests.data() + b0, b1 - b0));
    TAXOREC_CHECK(lists.size() == b1 - b0);
    batch_ms.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - bt0)
                           .count());
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::sort(batch_ms.begin(), batch_ms.end());
  const auto pct = [&](double q) {
    const size_t i = std::min(batch_ms.size() - 1,
                              static_cast<size_t>(q * batch_ms.size()));
    return batch_ms[i];
  };
  CacheReplay replay;
  replay.qps = static_cast<double>(num_requests) / wall;
  replay.hit_rate = static_cast<double>(server.cache()->hits()) /
                    static_cast<double>(num_requests);
  replay.p50_ms = pct(0.50);
  replay.p95_ms = pct(0.95);
  replay.p99_ms = pct(0.99);
  return replay;
}

struct TierReport {
  double items_per_second = 0.0;
  double speedup_vs_double = 1.0;
  double topk_overlap_vs_double = 1.0;
  size_t snapshot_bytes = 0;
};

/// Single-thread block-sweep scoring throughput of one precision tier:
/// every user in `users` scores the full catalogue through ScoreBlock in
/// kServeItemBlock strides (the serving hot loop without the heap).
double ScoreSweepSeconds(const FrozenModel& model,
                         std::span<const uint32_t> users, int reps) {
  const size_t n = model.num_items();
  std::vector<double> scratch(std::min(n, kServeItemBlock));
  std::vector<double> work(model.ScoreBlockScratch(1, kServeItemBlock));
  return bench::TimeBestSeconds(reps, [&] {
    for (uint32_t u : users) {
      for (size_t begin = 0; begin < n; begin += kServeItemBlock) {
        const size_t end = std::min(begin + kServeItemBlock, n);
        model.ScoreBlock({&u, 1}, begin, end,
                         std::span<double>(scratch.data(), end - begin), {},
                         work);
      }
    }
  });
}

double MeanTopKOverlap(const FrozenModel& reference, const FrozenModel& tier,
                       std::span<const uint32_t> users, size_t k) {
  TopKHeap heap;
  std::vector<double> scratch;
  std::vector<TopKEntry> want, got;
  double total = 0.0;
  for (uint32_t u : users) {
    BlockedTopK(reference, u, k, {}, &heap, &scratch, &want);
    BlockedTopK(tier, u, k, {}, &heap, &scratch, &got);
    size_t hits = 0;
    for (const TopKEntry& w : want) {
      for (const TopKEntry& g : got) {
        if (g.item == w.item) {
          ++hits;
          break;
        }
      }
    }
    total += static_cast<double>(hits) / static_cast<double>(want.size());
  }
  return total / static_cast<double>(users.size());
}

/// One open-loop arrival run of the overload sweep.
struct OverloadPoint {
  double mult = 0.0;      // arrival rate / measured saturation rate
  double p99_ms = 0.0;    // served-request latency (completion - arrival)
  double mean_ms = 0.0;
  size_t served = 0;
  size_t shed = 0;
  double shed_rate = 0.0;
  uint64_t degraded = 0;         // taxorec.serve.degraded delta
  uint64_t deadline_missed = 0;  // taxorec.serve.deadline_missed delta
};

uint64_t ServeCounter(const char* name) {
  return MetricsRegistry::Instance().GetCounter(name)->value();
}

/// Closed-loop saturation throughput of the robust serving config at its
/// configured (double) tier: the rate the open-loop sweep multiplies.
double MeasureServiceRate(const Recommender& model, const DataSplit& split,
                          size_t k, size_t num_requests) {
  BatchServer server(model, split, ServeOptions{});
  Rng rng(88);
  std::vector<ServeRequest> requests(num_requests);
  for (auto& req : requests) {
    req.user = static_cast<uint32_t>(rng.Uniform(split.num_users));
    req.k = k;
  }
  constexpr size_t kBatch = 64;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t b0 = 0; b0 < requests.size(); b0 += kBatch) {
    const size_t b1 = std::min(b0 + kBatch, requests.size());
    server.ServeBatch(
        std::span<const ServeRequest>(requests.data() + b0, b1 - b0));
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<double>(num_requests) / wall;
}

constexpr size_t kOverloadMaxQueue = 128;
constexpr double kOverloadDeadlineMs = 50.0;

/// Replays `n` requests arriving open-loop at `mult` × `service_rate`.
/// With `robust` the stream goes through the admission front door (bounded
/// queue, deadline budgets, degradation ladder) and excess load is shed;
/// without it the stream queues unboundedly at full precision — the
/// pre-overload serving path, whose latency under 2× arrival grows with
/// the stream length. Latency percentiles exclude the first quarter of the
/// stream (warmup): the interesting number is the steady state the
/// controller settles into, not the transient while the ladder engages.
OverloadPoint RunOpenLoop(const Recommender& model, const DataSplit& split,
                          size_t k, double service_rate, double mult, size_t n,
                          bool robust) {
  ServeOptions opts;
  if (robust) {
    opts.admission.max_queue = kOverloadMaxQueue;
    opts.admission.degrade = true;
    // Thresholds in seconds of estimated queue wait, scaled to how much
    // work the bounded queue can actually hold at the measured service
    // rate: degrade when the queue is (time-wise) half full, recover only
    // when it is nearly empty. Absolute thresholds would be hair-trigger
    // at one catalogue scale and unreachable at another.
    const double full_queue_wait =
        static_cast<double>(kOverloadMaxQueue) / service_rate;
    opts.admission.pressure_step_down = 0.5 * full_queue_wait;
    opts.admission.pressure_step_up = 0.05 * full_queue_wait;
  }
  const size_t warmup = n / 4;
  BatchServer server(model, split, opts);
  Rng rng(99);
  std::vector<uint32_t> users(n);
  for (auto& u : users) {
    u = static_cast<uint32_t>(rng.Uniform(split.num_users));
  }

  const uint64_t degraded0 = ServeCounter("taxorec.serve.degraded");
  const uint64_t missed0 = ServeCounter("taxorec.serve.deadline_missed");
  const double arrival_rate = service_rate * mult;
  const auto deadline_budget =
      std::chrono::duration_cast<ServeClock::duration>(
          std::chrono::duration<double, std::milli>(kOverloadDeadlineMs));
  const auto t0 = ServeClock::now();
  const auto arrival_of = [&](size_t i) {
    return t0 + std::chrono::duration_cast<ServeClock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(i) / arrival_rate));
  };

  constexpr size_t kBatch = 64;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(n);
  // Arrival stamp + stream index of each admitted request, FIFO —
  // ServeQueued dequeues and answers in FIFO order, so completion results
  // pair with these in order.
  struct Pending {
    ServeClock::time_point arrival;
    size_t index;
  };
  std::deque<Pending> admitted;
  struct LocalPending {
    ServeRequest request;
    ServeClock::time_point arrival;
    size_t index;
  };
  std::deque<LocalPending> local_queue;
  size_t arrived = 0;
  size_t served = 0;
  size_t shed = 0;
  std::vector<ServeRequest> batch;
  const auto record = [&](ServeClock::time_point arrival, size_t index,
                          ServeClock::time_point done) {
    if (index < warmup) return;
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(done - arrival).count());
  };
  while (served + shed < n) {
    const auto now = ServeClock::now();
    while (arrived < n && arrival_of(arrived) <= now) {
      ServeRequest req;
      req.user = users[arrived];
      req.k = k;
      const auto arrival = arrival_of(arrived);
      if (robust) {
        req.deadline = arrival + deadline_budget;
        if (server.Submit(req) == AdmitResult::kAdmitted) {
          admitted.push_back({arrival, arrived});
        } else {
          ++shed;
        }
      } else {
        local_queue.push_back({req, arrival, arrived});
      }
      ++arrived;
    }
    if (robust) {
      auto results = server.ServeQueued(kBatch);
      if (results.empty()) {
        if (arrived < n) std::this_thread::sleep_until(arrival_of(arrived));
        continue;
      }
      const auto done = ServeClock::now();
      for (const ServeResult& r : results) {
        const Pending p = admitted.front();
        admitted.pop_front();
        if (IsShed(r.status)) {
          ++shed;
          continue;
        }
        record(p.arrival, p.index, done);
        ++served;
      }
    } else {
      if (local_queue.empty()) {
        if (arrived < n) std::this_thread::sleep_until(arrival_of(arrived));
        continue;
      }
      batch.clear();
      const size_t take = std::min(kBatch, local_queue.size());
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(local_queue[i].request);
      }
      server.ServeBatch(std::span<const ServeRequest>(batch));
      const auto done = ServeClock::now();
      for (size_t i = 0; i < take; ++i) {
        record(local_queue[i].arrival, local_queue[i].index, done);
      }
      local_queue.erase(local_queue.begin(), local_queue.begin() + take);
      served += take;
    }
  }

  OverloadPoint point;
  point.mult = mult;
  point.served = served;
  point.shed = shed;
  point.shed_rate = static_cast<double>(shed) / static_cast<double>(n);
  point.degraded = ServeCounter("taxorec.serve.degraded") - degraded0;
  point.deadline_missed =
      ServeCounter("taxorec.serve.deadline_missed") - missed0;
  if (!latencies_ms.empty()) {
    double sum = 0.0;
    for (double v : latencies_ms) sum += v;
    point.mean_ms = sum / static_cast<double>(latencies_ms.size());
    std::sort(latencies_ms.begin(), latencies_ms.end());
    point.p99_ms = latencies_ms[std::min(
        latencies_ms.size() - 1,
        static_cast<size_t>(0.99 * static_cast<double>(latencies_ms.size())))];
  }
  return point;
}

/// The median of one OverloadPoint field across repeated runs.
template <typename T>
T MedianField(std::vector<OverloadPoint>* runs, T OverloadPoint::*field) {
  const auto mid =
      runs->begin() + static_cast<std::ptrdiff_t>(runs->size() / 2);
  std::nth_element(runs->begin(), mid, runs->end(),
                   [field](const OverloadPoint& a, const OverloadPoint& b) {
                     return a.*field < b.*field;
                   });
  return (*mid).*field;
}

/// The robust open-loop run at `mult` x saturation, repeated `reps` times
/// (odd) and reduced field by field to the median. Each repetition
/// measures the service rate (over `rate_requests`) right before its run:
/// a slow patch on a shared host during one measurement under-scales only
/// that repetition's load, so only it sheds nothing, and a stall during one
/// run lifts only that run's p99 and shed rate. The median of five ignores
/// up to two such repetitions.
OverloadPoint MedianOpenLoop(const Recommender& model, const DataSplit& split,
                             size_t k, size_t rate_requests, double mult,
                             size_t n, size_t reps) {
  std::vector<OverloadPoint> runs;
  for (size_t r = 0; r < reps; ++r) {
    const double rate = MeasureServiceRate(model, split, k, rate_requests);
    runs.push_back(
        RunOpenLoop(model, split, k, rate, mult, n, /*robust=*/true));
  }
  OverloadPoint m;
  m.mult = mult;
  m.p99_ms = MedianField(&runs, &OverloadPoint::p99_ms);
  m.mean_ms = MedianField(&runs, &OverloadPoint::mean_ms);
  m.served = MedianField(&runs, &OverloadPoint::served);
  m.shed = MedianField(&runs, &OverloadPoint::shed);
  m.shed_rate = MedianField(&runs, &OverloadPoint::shed_rate);
  m.degraded = MedianField(&runs, &OverloadPoint::degraded);
  m.deadline_missed = MedianField(&runs, &OverloadPoint::deadline_missed);
  return m;
}

/// Windowed time-series of one overload episode (DESIGN.md §13): phase A
/// drives open-loop arrivals at 2x the measured service rate, phase B
/// drops to 0.3x and runs until the degradation ladder steps back to full
/// precision (bounded by a hard cap). A TimeseriesRecorder ticks on a
/// ~120 ms cadence; the stats_window lines land in `stats_path`
/// (renderable with telemetry_report --stats) and show the ladder stepping
/// down and recovering window by window.
struct OverloadTimeline {
  size_t windows = 0;           // total windows written
  size_t overload_windows = 0;  // windows overlapping phase A
  double max_steps = 0.0;       // peak degrade_steps gauge during phase A
  double final_steps = 0.0;
  double windowed_p99_ms = 0.0;  // max windowed request p99 across phase A
  double max_window_shed_rate = 0.0;
  bool recovered = false;
};

OverloadTimeline RunOverloadTimeline(const Recommender& model,
                                     const DataSplit& split, size_t k,
                                     double service_rate, bool quick,
                                     const char* stats_path) {
  ServeOptions opts;
  opts.admission.max_queue = kOverloadMaxQueue;
  opts.admission.degrade = true;
  // Same scale-relative ladder thresholds as RunOpenLoop.
  const double full_queue_wait =
      static_cast<double>(kOverloadMaxQueue) / service_rate;
  opts.admission.pressure_step_down = 0.5 * full_queue_wait;
  opts.admission.pressure_step_up = 0.05 * full_queue_wait;
  BatchServer server(model, split, opts);

  std::FILE* f = std::fopen(stats_path, "w");
  TAXOREC_CHECK_MSG(f != nullptr, "cannot write the overload stats stream");
  constexpr double kTick = 0.12;
  TimeseriesOptions topts;
  topts.prefix = "taxorec.serve.";
  topts.interval_seconds = kTick;
  TimeseriesRecorder recorder(topts, 0.0);

  const double phase_a = quick ? 0.6 : 0.9;
  const double hard_cap = phase_a + (quick ? 4.0 : 6.0);
  const auto deadline_budget =
      std::chrono::duration_cast<ServeClock::duration>(
          std::chrono::duration<double, std::milli>(kOverloadDeadlineMs));
  constexpr size_t kBatch = 64;

  Rng rng(123);
  OverloadTimeline tl;
  const auto t0 = ServeClock::now();
  const auto now_s = [&] {
    return std::chrono::duration<double>(ServeClock::now() - t0).count();
  };
  double next_arrival = 0.0;
  double next_tick = kTick;
  while (true) {
    const double now = now_s();
    const bool in_a = now < phase_a;
    const double rate = (in_a ? 2.0 : 0.3) * service_rate;
    while (next_arrival <= now) {
      ServeRequest req;
      req.user = static_cast<uint32_t>(rng.Uniform(split.num_users));
      req.k = k;
      req.deadline = t0 +
                     std::chrono::duration_cast<ServeClock::duration>(
                         std::chrono::duration<double>(next_arrival)) +
                     deadline_budget;
      server.Submit(req);
      next_arrival += 1.0 / rate;
    }
    server.ServeQueued(kBatch);
    if (now >= next_tick) {
      const TimeseriesWindow w = recorder.Tick(now);
      std::fprintf(f, "%s\n", StatsWindowJsonl(w).c_str());
      ++tl.windows;
      if (w.t0 < phase_a) {
        ++tl.overload_windows;
        const auto steps_it = w.gauges.find("taxorec.serve.degrade_steps");
        if (steps_it != w.gauges.end()) {
          tl.max_steps = std::max(tl.max_steps, steps_it->second);
        }
        const auto hist = w.histograms.find("taxorec.serve.request_seconds");
        if (hist != w.histograms.end() && hist->second.count > 0) {
          tl.windowed_p99_ms =
              std::max(tl.windowed_p99_ms, hist->second.p99 * 1e3);
        }
        const auto shed_it = w.counters.find("taxorec.serve.shed");
        const auto req_it = w.counters.find("taxorec.serve.requests");
        const double shed_d = shed_it != w.counters.end()
                                  ? static_cast<double>(shed_it->second)
                                  : 0.0;
        const double req_d = req_it != w.counters.end()
                                 ? static_cast<double>(req_it->second)
                                 : 0.0;
        if (shed_d + req_d > 0.0) {
          tl.max_window_shed_rate =
              std::max(tl.max_window_shed_rate, shed_d / (shed_d + req_d));
        }
      }
      next_tick = now + kTick;
    }
    if (!in_a && server.admission()->degrade_steps() == 0 &&
        server.admission()->queue_depth() == 0) {
      break;
    }
    if (now > hard_cap) break;
  }
  // Close the stream with the recovered steady state so the last window
  // shows the ladder back at full precision.
  const double end = now_s();
  if (tl.windows == 0 || end > next_tick - kTick) {
    const TimeseriesWindow w = recorder.Tick(end);
    std::fprintf(f, "%s\n", StatsWindowJsonl(w).c_str());
    ++tl.windows;
  }
  std::fclose(f);
  tl.final_steps =
      static_cast<double>(server.admission()->degrade_steps());
  tl.recovered = tl.final_steps == 0.0;
  return tl;
}

/// Times the three precision tiers over a large dot-kernel catalogue
/// (dim-32 float32 rows are the serving layout the SIMD kernels target)
/// and checks the documented rank-stability tolerances. The reduced-tier
/// results[] share index order with kTierNames.
constexpr const char* kTierNames[] = {"double", "float32", "int8"};

/// Span names of the tier sweeps (one call-path profile site per tier).
constexpr const char* kTierSpans[] = {"serve.double", "serve.f32",
                                      "serve.int8"};

std::vector<TierReport> RunTierBench(size_t num_items, int reps,
                                     bool assert_speedup) {
  constexpr size_t kDim = 32;
  constexpr size_t kSweepUsers = 8;
  constexpr size_t kOverlapK = 100;
  Rng rng(1234);
  Matrix su(kSweepUsers, kDim), sv(num_items, kDim);
  su.FillGaussian(&rng, 0.1);
  sv.FillGaussian(&rng, 0.1);
  const DotScorer scorer(std::move(su), std::move(sv));
  const ScoringSnapshot rows = scorer.ExportScoringSnapshot();

  std::vector<uint32_t> users(kSweepUsers);
  std::iota(users.begin(), users.end(), 0u);

  const PrecisionTier tiers[] = {PrecisionTier::kDouble,
                                 PrecisionTier::kFloat32,
                                 PrecisionTier::kInt8};
  std::vector<TierReport> reports;
  const FrozenModel reference(rows, PrecisionTier::kDouble);
  for (PrecisionTier tier : tiers) {
    const FrozenModel model(rows, tier);
    TierReport r;
    double secs;
    {
      TraceSpan span(kTierSpans[reports.size()]);
      secs = ScoreSweepSeconds(model, users, reps);
    }
    r.items_per_second =
        static_cast<double>(kSweepUsers * num_items) / secs;
    r.snapshot_bytes = model.snapshot_bytes();
    if (tier != PrecisionTier::kDouble) {
      r.speedup_vs_double =
          r.items_per_second / reports[0].items_per_second;
      r.topk_overlap_vs_double =
          MeanTopKOverlap(reference, model, users, kOverlapK);
    }
    reports.push_back(r);
  }
  // The documented rank-stability contract, asserted here as in the tests.
  TAXOREC_CHECK_MSG(reports[1].topk_overlap_vs_double >= kFloat32TopKOverlap,
                    "float32 tier violated its top-K overlap tolerance");
  TAXOREC_CHECK_MSG(reports[2].topk_overlap_vs_double >= kInt8TopKOverlap,
                    "int8 tier violated its top-K overlap tolerance");
  if (assert_speedup) {
    // Tentpole target: >= 4x single-thread scoring throughput over the
    // double path on the large catalogue (full mode only — quick-mode
    // catalogues fit in cache and jitter too much for a hard gate).
    TAXOREC_CHECK_MSG(reports[1].speedup_vs_double >= 4.0,
                      "float32 tier fell below the 4x throughput target");
  }
  return reports;
}

int Main(int argc, const char* const* argv) {
  const auto start = std::chrono::steady_clock::now();
  const bool quick = bench::HasArg(argc, argv, "quick");
  const int threads = bench::InitThreads(argc, argv);
  bench::InitObservability(argc, argv);

  SyntheticConfig cfg;
  cfg.num_users = quick ? 400 : 2000;
  cfg.num_items = quick ? 1500 : 12000;
  cfg.num_tags = 40;
  cfg.seed = 7;
  const Dataset data = GenerateSynthetic(cfg);
  const DataSplit split = TemporalSplit(data);
  constexpr size_t kTopK = 10;
  const int reps = quick ? 3 : 5;

  Rng rng(42);
  Matrix du(split.num_users, 64), dv(split.num_items, 64);
  du.FillGaussian(&rng, 0.1);
  dv.FillGaussian(&rng, 0.1);
  const DotScorer dot(std::move(du), std::move(dv));

  Matrix lu(split.num_users, 33), lv(split.num_items, 33);
  for (size_t i = 0; i < split.num_users; ++i) {
    lorentz::RandomPoint(&rng, 0.5, lu.row(i));
  }
  for (size_t i = 0; i < split.num_items; ++i) {
    lorentz::RandomPoint(&rng, 0.5, lv.row(i));
  }
  // The two-channel stub shares the item channel and draws its tag rows
  // from a stream of its own, so the other stubs keep their rows. Every
  // fifth user has alpha = 0 and ranks on the item channel alone.
  Rng tag_rng(43);
  Matrix tu(split.num_users, 13), tv(split.num_items, 13);
  for (Matrix* m : {&tu, &tv}) {
    for (size_t i = 0; i < m->rows(); ++i) {
      lorentz::RandomPoint(&tag_rng, 0.3, m->row(i));
    }
  }
  std::vector<double> alpha(split.num_users);
  for (size_t u = 0; u < alpha.size(); ++u) {
    alpha[u] = u % 5 == 0 ? 0.0 : tag_rng.UniformReal(0.2, 1.0);
  }
  const LorentzScorer tag_lor(lu, lv, std::move(tu), std::move(tv),
                              std::move(alpha));
  const LorentzScorer lor(std::move(lu), std::move(lv));

  std::printf("serve bench: %zu users x %zu items, top-%zu, threads=%d\n",
              split.num_users, split.num_items, kTopK, threads);
  const PathTimings dot_t = TimeRankingPaths(dot, split, kTopK, reps);
  std::printf("  dot:     seed %.4fs  serve %.4fs  speedup %.2fx\n",
              dot_t.seed_seconds, dot_t.serve_seconds,
              dot_t.seed_seconds / dot_t.serve_seconds);
  const PathTimings lor_t = TimeRankingPaths(lor, split, kTopK, reps);
  std::printf("  lorentz: seed %.4fs  serve %.4fs  speedup %.2fx\n",
              lor_t.seed_seconds, lor_t.serve_seconds,
              lor_t.seed_seconds / lor_t.serve_seconds);
  // The share of swept items the two-channel bound pruned, over the tag
  // stub's serve sweeps (the seed path does not sweep).
  const uint64_t swept0 = ServeCounter("taxorec.rank.items_swept");
  const uint64_t pruned0 = ServeCounter("taxorec.rank.items_pruned");
  const PathTimings tag_t = TimeRankingPaths(tag_lor, split, kTopK, reps);
  const double tag_pruned_share =
      static_cast<double>(ServeCounter("taxorec.rank.items_pruned") -
                          pruned0) /
      static_cast<double>(ServeCounter("taxorec.rank.items_swept") - swept0);
  std::printf(
      "  lorentz+tags: seed %.4fs  serve %.4fs  speedup %.2fx  "
      "pruned %.1f%%\n",
      tag_t.seed_seconds, tag_t.serve_seconds,
      tag_t.seed_seconds / tag_t.serve_seconds, 100.0 * tag_pruned_share);

  const CacheReplay replay =
      RunCacheReplay(dot, split, kTopK, quick ? 4000 : 20000);
  std::printf(
      "  cached replay: %.0f req/s  hit rate %.1f%%  batch p50 %.3fms "
      "p95 %.3fms p99 %.3fms\n",
      replay.qps, 100.0 * replay.hit_rate, replay.p50_ms, replay.p95_ms,
      replay.p99_ms);

  // Precision tiers: single-thread scoring throughput over a large
  // catalogue (1M items in full mode), per-tier snapshot footprint and
  // top-K rank stability vs the double path.
  const size_t tier_items = quick ? 20000 : 1000000;
  std::printf("  precision tiers (%zu items, f32 backend %s):\n", tier_items,
              f32::ActiveBackendName());
  const std::vector<TierReport> tiers =
      RunTierBench(tier_items, reps, /*assert_speedup=*/!quick);
  for (size_t i = 0; i < tiers.size(); ++i) {
    std::printf(
        "    %-7s %8.1fM items/s  %6.1f MiB  speedup %5.2fx  "
        "top-%d overlap %.3f\n",
        kTierNames[i], tiers[i].items_per_second / 1e6,
        static_cast<double>(tiers[i].snapshot_bytes) / (1024.0 * 1024.0),
        tiers[i].speedup_vs_double, 100, tiers[i].topk_overlap_vs_double);
  }

  // Overload: open-loop arrivals at multiples of the measured closed-loop
  // service rate. The robust config (bounded queue, 50ms deadlines,
  // degradation ladder) must keep p99 bounded at 2x saturation while the
  // admission-free path queues unboundedly; the no-admission run replays a
  // shorter stream since its latency grows with stream length. The robust
  // 2x point, which CI gates, is the median of kOverloadReps runs.
  constexpr size_t kOverloadReps = 5;
  const size_t overload_n = quick ? 4000 : 20000;
  const size_t rate_requests = quick ? 4000 : 10000;
  const double service_rate =
      MeasureServiceRate(dot, split, kTopK, rate_requests);
  const OverloadPoint unloaded = RunOpenLoop(dot, split, kTopK, service_rate,
                                             0.5, overload_n, /*robust=*/true);
  const OverloadPoint over2x = MedianOpenLoop(
      dot, split, kTopK, rate_requests, 2.0, overload_n, kOverloadReps);
  const OverloadPoint naive2x =
      RunOpenLoop(dot, split, kTopK, service_rate, 2.0,
                  quick ? 1000 : 4000, /*robust=*/false);
  const double p99_over_unloaded =
      unloaded.p99_ms > 0.0 ? over2x.p99_ms / unloaded.p99_ms : 0.0;
  std::printf("  overload (service rate %.0f req/s, deadline %.0fms, "
              "queue %zu):\n",
              service_rate, kOverloadDeadlineMs, kOverloadMaxQueue);
  std::printf("    0.5x robust: p99 %8.3fms  shed %5.1f%%  degraded %llu\n",
              unloaded.p99_ms, 100.0 * unloaded.shed_rate,
              static_cast<unsigned long long>(unloaded.degraded));
  std::printf("    2.0x robust: p99 %8.3fms  shed %5.1f%%  degraded %llu  "
              "deadline_missed %llu  (p99 ratio %.2fx, median of %zu)\n",
              over2x.p99_ms, 100.0 * over2x.shed_rate,
              static_cast<unsigned long long>(over2x.degraded),
              static_cast<unsigned long long>(over2x.deadline_missed),
              p99_over_unloaded, kOverloadReps);
  std::printf("    2.0x no-admission: p99 %8.3fms  (unbounded queue, "
              "%zu-request stream)\n",
              naive2x.p99_ms, naive2x.served);
  // Acceptance: under 2x saturation the admission path must actually shed
  // and degrade, in the median run; the p99 bound is asserted in full mode
  // only (quick-mode streams are short enough to jitter) and gated via
  // bench_compare in CI.
  TAXOREC_CHECK_MSG(over2x.shed > 0,
                    "2x overload run shed nothing through admission");
  TAXOREC_CHECK_MSG(over2x.degraded > 0,
                    "2x overload run never engaged the degradation ladder");
  if (!quick) {
    TAXOREC_CHECK_MSG(p99_over_unloaded <= 3.0,
                      "2x overload p99 exceeded 3x the unloaded p99");
  }

  // Overload timeline (DESIGN.md §13): the same episode as a windowed
  // time-series, written as a stats JSONL stream next to the bench JSON.
  const char* kTimelineStats = "BENCH_serve.stats.jsonl";
  const OverloadTimeline timeline = RunOverloadTimeline(
      dot, split, kTopK, service_rate, quick, kTimelineStats);
  std::printf(
      "    timeline: %zu windows (%zu overloaded)  max steps %.0f  "
      "windowed p99 %.3fms  max window shed %.1f%%  recovered %s  "
      "-> %s\n",
      timeline.windows, timeline.overload_windows, timeline.max_steps,
      timeline.windowed_p99_ms, 100.0 * timeline.max_window_shed_rate,
      timeline.recovered ? "yes" : "no", kTimelineStats);
  // Acceptance: the window-by-window view must show the ladder stepping
  // down under 2x saturation and back to full precision once the load
  // recedes — not just the episode-total counters above.
  TAXOREC_CHECK_MSG(timeline.max_steps >= 1.0,
                    "overload timeline never stepped the ladder down");
  TAXOREC_CHECK_MSG(timeline.recovered,
                    "ladder failed to recover after the load receded");

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const bool wrote = bench::WriteObservabilityFiles(argc, argv);
  std::FILE* f = std::fopen("BENCH_serve.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(
      f,
      "{\"bench\": \"serve\", \"threads\": %d, \"hardware_concurrency\": %d,\n"
      " \"quick\": %s, \"users\": %zu, \"items\": %zu, \"k\": %zu,\n"
      " \"dot\": {\"seed_seconds\": %.6f, \"serve_seconds\": %.6f, "
      "\"speedup\": %.3f},\n"
      " \"lorentz\": {\"seed_seconds\": %.6f, \"serve_seconds\": %.6f, "
      "\"speedup\": %.3f},\n"
      " \"lorentz_tags\": {\"seed_seconds\": %.6f, \"serve_seconds\": %.6f, "
      "\"speedup\": %.3f, \"pruned_share\": %.4f},\n"
      " \"cache_replay\": {\"qps\": %.0f, \"hit_rate\": %.4f, "
      "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f},\n"
      " \"tier_items\": %zu, \"f32_backend\": \"%s\",\n"
      " \"tiers\": {\n"
      "  \"double\": {\"items_scored_per_second\": %.0f, "
      "\"snapshot_bytes\": %zu},\n"
      "  \"float32\": {\"items_scored_per_second\": %.0f, "
      "\"snapshot_bytes\": %zu, \"speedup_vs_double\": %.3f, "
      "\"topk_overlap_vs_double\": %.4f},\n"
      "  \"int8\": {\"items_scored_per_second\": %.0f, "
      "\"snapshot_bytes\": %zu, \"speedup_vs_double\": %.3f, "
      "\"topk_overlap_vs_double\": %.4f}},\n"
      " \"overload\": {\"service_rate_qps\": %.0f, \"deadline_ms\": %.1f, "
      "\"max_queue\": %zu,\n"
      "  \"unloaded\": {\"p99_ms\": %.4f, \"mean_ms\": %.4f, "
      "\"served\": %zu, \"shed\": %zu, \"shed_rate\": %.4f},\n"
      "  \"overload2x\": {\"p99_ms\": %.4f, \"mean_ms\": %.4f, "
      "\"served\": %zu, \"shed\": %zu, \"shed_rate\": %.4f, "
      "\"degraded\": %llu, \"deadline_missed\": %llu},\n"
      "  \"no_admission2x\": {\"p99_ms\": %.4f, \"mean_ms\": %.4f, "
      "\"served\": %zu},\n"
      "  \"p99_over_unloaded\": %.4f,\n"
      "  \"timeline\": {\"windows\": %zu, \"overload_windows\": %zu, "
      "\"max_steps\": %.0f, \"final_steps\": %.0f, "
      "\"windowed_p99_ms\": %.4f, \"max_window_shed_rate\": %.4f, "
      "\"recovered\": %s, \"stats_path\": \"%s\"}},\n"
      " \"wall_seconds\": %.3f, \"peak_rss_bytes\": %llu,\n"
      " \"rusage\": %s,\n \"profile\": %s,\n \"metrics\": %s}\n",
      threads, HardwareThreads(), quick ? "true" : "false",
      static_cast<size_t>(split.num_users),
      static_cast<size_t>(split.num_items), kTopK, dot_t.seed_seconds,
      dot_t.serve_seconds, dot_t.seed_seconds / dot_t.serve_seconds,
      lor_t.seed_seconds, lor_t.serve_seconds,
      lor_t.seed_seconds / lor_t.serve_seconds, tag_t.seed_seconds,
      tag_t.serve_seconds, tag_t.seed_seconds / tag_t.serve_seconds,
      tag_pruned_share, replay.qps, replay.hit_rate,
      replay.p50_ms, replay.p95_ms, replay.p99_ms, tier_items,
      f32::ActiveBackendName(), tiers[0].items_per_second,
      tiers[0].snapshot_bytes, tiers[1].items_per_second,
      tiers[1].snapshot_bytes, tiers[1].speedup_vs_double,
      tiers[1].topk_overlap_vs_double, tiers[2].items_per_second,
      tiers[2].snapshot_bytes, tiers[2].speedup_vs_double,
      tiers[2].topk_overlap_vs_double, service_rate, kOverloadDeadlineMs,
      kOverloadMaxQueue, unloaded.p99_ms, unloaded.mean_ms, unloaded.served,
      unloaded.shed, unloaded.shed_rate, over2x.p99_ms, over2x.mean_ms,
      over2x.served, over2x.shed, over2x.shed_rate,
      static_cast<unsigned long long>(over2x.degraded),
      static_cast<unsigned long long>(over2x.deadline_missed),
      naive2x.p99_ms, naive2x.mean_ms, naive2x.served, p99_over_unloaded,
      timeline.windows, timeline.overload_windows, timeline.max_steps,
      timeline.final_steps, timeline.windowed_p99_ms,
      timeline.max_window_shed_rate, timeline.recovered ? "true" : "false",
      kTimelineStats, wall,
      static_cast<unsigned long long>(PeakRssBytes()),
      RusageJsonObject(SelfRusage()).c_str(), ProfileJsonArray().c_str(),
      MetricsRegistry::Instance().SnapshotJson().c_str());
  std::fclose(f);
  std::printf("[bench] serve: threads=%d wall=%.2fs -> BENCH_serve.json\n",
              threads, wall);
  return wrote ? 0 : 1;
}

}  // namespace
}  // namespace taxorec

int main(int argc, char** argv) { return taxorec::Main(argc, argv); }
