#include "common/parallel.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/check.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/sampling_profiler.h"

namespace taxorec {
namespace {

std::mutex g_config_mu;
int g_num_threads = 0;  // 0 = unset → HardwareThreads()
std::unique_ptr<ThreadPool> g_pool;

// A region whose busiest worker ran more than this many times the mean
// worker's busy time logs one WARN line.
constexpr double kImbalanceWarnRatio = 4.0;

// Regions faster than this on their busiest worker never WARN: at sub-10ms
// scale the µs timer quantizes busy times into meaningless ratios.
constexpr uint64_t kImbalanceWarnFloorUs = 10'000;

/// Cached taxorec.pool.* instruments (registration mutex paid once).
struct PoolMetrics {
  Counter* regions = MetricsRegistry::Instance().GetCounter(
      "taxorec.pool.regions");
  Counter* chunks =
      MetricsRegistry::Instance().GetCounter("taxorec.pool.chunks");
  Histogram* imbalance = MetricsRegistry::Instance().GetHistogram(
      "taxorec.pool.imbalance", {1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0});

  Counter* WorkerBusy(size_t w) {
    std::lock_guard<std::mutex> lock(mu);
    while (worker_busy.size() <= w) {
      worker_busy.push_back(MetricsRegistry::Instance().GetCounter(
          "taxorec.pool.worker." + std::to_string(worker_busy.size()) +
          ".busy_us"));
    }
    return worker_busy[w];
  }

 private:
  std::mutex mu;
  std::vector<Counter*> worker_busy;
};

PoolMetrics& PoolMetricsInstance() {
  static PoolMetrics* metrics = new PoolMetrics();
  return *metrics;
}

/// Folds one fanned-out region's per-worker busy times into the pool
/// instruments; instruments never touch caller state, so observability
/// stays off the determinism surface.
void RecordPoolRegion(const uint64_t* busy_us, int num_workers,
                      size_t num_chunks, size_t range) {
  PoolMetrics& m = PoolMetricsInstance();
  m.regions->Increment();
  m.chunks->Increment(num_chunks);
  uint64_t total = 0;
  uint64_t max_busy = 0;
  for (int w = 0; w < num_workers; ++w) {
    total += busy_us[w];
    if (busy_us[w] > max_busy) max_busy = busy_us[w];
    m.WorkerBusy(static_cast<size_t>(w))->Increment(busy_us[w]);
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(num_workers);
  if (mean <= 0.0) return;
  const double ratio = static_cast<double>(max_busy) / mean;
  m.imbalance->Observe(ratio);
  if (ratio > kImbalanceWarnRatio && max_busy >= kImbalanceWarnFloorUs) {
    TAXOREC_LOG(WARN) << "parallel region imbalance"
                      << Kv("imbalance", ratio)
                      << Kv("threshold", kImbalanceWarnRatio)
                      << Kv("workers", num_workers)
                      << Kv("chunks", num_chunks) << Kv("range", range)
                      << Kv("max_worker_us", max_busy)
                      << Kv("mean_worker_us", mean);
  }
}

// Set while a worker executes chunks; a ParallelFor issued from inside a
// worker (e.g. a parallel kernel called from an already-parallel region)
// runs inline instead of re-entering the pool.
thread_local bool tl_in_worker = false;

ThreadPool* AcquirePool(int num_threads) {
  std::lock_guard<std::mutex> lock(g_config_mu);
  if (g_pool == nullptr || g_pool->num_threads() != num_threads) {
    g_pool.reset();  // join the old workers before spawning new ones
    g_pool = std::make_unique<ThreadPool>(num_threads);
  }
  return g_pool.get();
}

}  // namespace

int HardwareThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int GetNumThreads() {
  std::lock_guard<std::mutex> lock(g_config_mu);
  return g_num_threads == 0 ? HardwareThreads() : g_num_threads;
}

void SetNumThreads(int n) {
  TAXOREC_CHECK(n >= 1);
  std::lock_guard<std::mutex> lock(g_config_mu);
  g_num_threads = n;
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads),
      busy_us_(static_cast<size_t>(std::max(num_threads, 1)), 0) {
  TAXOREC_CHECK(num_threads >= 1);
  threads_.reserve(static_cast<size_t>(num_threads - 1));
  for (int w = 1; w < num_threads; ++w) {
    // Register each worker with the sampling profiler for its lifetime:
    // a per-thread-creation event (one registry append when disarmed),
    // not a per-region cost, so pool hot paths are untouched.
    threads_.emplace_back([this, w] {
      SamplingThreadScope sampling_scope;
      WorkerLoop(w);
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop(int worker) {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    if (worker < job_workers_) {
      const FunctionRef<void(int)>* job = job_;
      lock.unlock();
      (*job)(worker);
      lock.lock();
      if (--outstanding_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::Run(int num_workers, FunctionRef<void(int)> fn) {
  TAXOREC_CHECK(num_workers >= 1 && num_workers <= num_threads_);
  if (num_workers == 1) {
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    job_workers_ = num_workers;
    outstanding_ = num_workers - 1;
    ++generation_;
  }
  work_cv_.notify_all();
  fn(0);  // the caller is worker 0
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return outstanding_ == 0; });
  job_ = nullptr;
}

void ParallelForWorker(size_t begin, size_t end, size_t grain,
                       FunctionRef<void(size_t, size_t, int)> fn) {
  TAXOREC_CHECK(grain >= 1);
  if (begin >= end) return;
  const size_t n = end - begin;
  const size_t num_chunks = (n + grain - 1) / grain;
  const int threads = GetNumThreads();
  const int num_workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(threads), num_chunks));
  if (num_workers <= 1 || tl_in_worker) {
    fn(begin, end, 0);
    return;
  }
  // Per-worker busy times for the utilization metrics, in the pool's
  // slots: each has one writer, and Run's completion handshake (mutex +
  // condvar) publishes the writes before RecordPoolRegion reads them.
  ThreadPool* const pool = AcquirePool(threads);
  uint64_t* const busy_us = pool->busy_us();
  auto worker_fn = [&](int w) {
    const auto t0 = std::chrono::steady_clock::now();
    tl_in_worker = true;
    for (size_t c = static_cast<size_t>(w); c < num_chunks;
         c += static_cast<size_t>(num_workers)) {
      const size_t chunk_begin = begin + c * grain;
      const size_t chunk_end = std::min(end, chunk_begin + grain);
      fn(chunk_begin, chunk_end, w);
    }
    tl_in_worker = false;
    busy_us[w] = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  pool->Run(num_workers, worker_fn);
  RecordPoolRegion(busy_us, num_workers, num_chunks, n);
}

}  // namespace taxorec
