// Deterministic chunked parallelism for the training/eval hot paths.
//
// A fixed-size thread pool drives ParallelFor over contiguous chunks with a
// static, scheduling-independent chunk→worker assignment (round-robin by
// chunk index — no work stealing). Hot paths keep their outputs
// per-index (each index written by exactly one worker), so results are
// bit-identical at any thread count; ThreadLocalAccumulator provides
// per-worker partials with an ordered reduction for everything else.
//
// Threading model invariants (see DESIGN.md "Threading & determinism"):
//   - the pool is only entered from the orchestrating thread; a ParallelFor
//     issued from inside a worker runs inline (no nesting, no deadlock);
//   - with 1 thread (or a range smaller than one grain) the loop body runs
//     on the caller thread with zero pool overhead — the legacy path;
//   - SetNumThreads is not thread-safe against in-flight regions; call it
//     between parallel regions (flag parsing, test setup).
#ifndef TAXOREC_COMMON_PARALLEL_H_
#define TAXOREC_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace taxorec {

/// Non-owning reference to a callable, two pointers wide. Unlike
/// std::function it never copies the callable, so handing a lambda to
/// ParallelFor allocates nothing. The callable must outlive every call
/// through the reference.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
  FunctionRef(const F& f)  // NOLINT: implicit, so a lambda converts
      : obj_(&f), call_([](const void* obj, Args... args) -> R {
          return (*static_cast<const F*>(obj))(std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  const void* obj_;
  R (*call_)(const void*, Args...);
};

/// max(1, std::thread::hardware_concurrency()).
int HardwareThreads();

/// Pool utilization is exported through MetricsRegistry (always on; one
/// clock pair per worker per region, far off the chunk loop):
///   taxorec.pool.regions            regions that actually fanned out (>1
///                                   worker; the sequential path is free)
///   taxorec.pool.chunks             chunks dispatched across those regions
///   taxorec.pool.worker.<w>.busy_us cumulative busy time of worker w
///   taxorec.pool.imbalance          histogram of max-worker/mean-worker
///                                   busy time per region (1.0 = perfectly
///                                   balanced, W = one worker did it all)
/// A region slower than 10ms on its busiest worker whose imbalance exceeds
/// 4.0 logs one WARN line with the region shape.

/// Current global thread count used by ParallelFor. Defaults to
/// HardwareThreads() until SetNumThreads is called.
int GetNumThreads();

/// Sets the global thread count (n >= 1; checked). 1 restores the legacy
/// sequential behavior exactly.
void SetNumThreads(int n);

/// Persistent fixed-size pool. Worker 0 is the calling thread; workers
/// 1..num_threads-1 are pool threads parked on a condition variable.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(w) for w in [0, num_workers) — worker 0 on the caller, the
  /// rest on pool threads — and blocks until all return. Requires
  /// num_workers <= num_threads().
  void Run(int num_workers, FunctionRef<void(int)> fn);

  /// One busy-time slot per worker, sized at construction and reused by
  /// every region, so a region that fans out allocates nothing. Worker w
  /// writes slot w inside Run; Run's completion handshake publishes the
  /// writes to the caller.
  uint64_t* busy_us() { return busy_us_.data(); }

 private:
  void WorkerLoop(int worker);

  const int num_threads_;
  std::vector<uint64_t> busy_us_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const FunctionRef<void(int)>* job_ = nullptr;  // guarded by mu_
  int job_workers_ = 0;
  int outstanding_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
};

/// Chunked parallel loop over [begin, end): the range is cut into
/// contiguous chunks of `grain` indices (the last may be short) and chunk c
/// is processed by worker c % W, in ascending c per worker. The assignment
/// is a pure function of (range, grain, thread count) — never of
/// scheduling — and each index belongs to exactly one chunk. fn receives
/// the chunk bounds plus the worker index (for per-worker scratch).
void ParallelForWorker(size_t begin, size_t end, size_t grain,
                       FunctionRef<void(size_t, size_t, int)> fn);

/// ParallelForWorker without the worker index.
template <typename F>
void ParallelFor(size_t begin, size_t end, size_t grain, const F& fn) {
  ParallelForWorker(begin, end, grain,
                    [&fn](size_t b, size_t e, int) { fn(b, e); });
}

/// Per-worker slots (cache-line padded), e.g. scratch that each worker of a
/// ParallelForWorker region reuses across its chunks. Slot contents depend
/// on the chunk→worker assignment, hence on the thread count; hot paths
/// that must be bit-identical across thread counts write per-index outputs
/// instead and fold them in index order.
template <typename T>
class ThreadLocalAccumulator {
 public:
  explicit ThreadLocalAccumulator(T init = T{})
      : slots_(static_cast<size_t>(GetNumThreads()), Slot{init}) {}

  T& Local(int worker) { return slots_[static_cast<size_t>(worker)].value; }
  const T& Local(int worker) const {
    return slots_[static_cast<size_t>(worker)].value;
  }

 private:
  struct alignas(64) Slot {
    T value;
  };
  std::vector<Slot> slots_;
};

}  // namespace taxorec

#endif  // TAXOREC_COMMON_PARALLEL_H_
