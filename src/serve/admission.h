// AdmissionController: the overload front door of the serving subsystem.
//
// A heavy-traffic server must decide *at the door* which work it will do —
// accepting everything and serving it at full precision is exactly how
// latency collapses under load. The controller owns three mechanisms
// (DESIGN.md §12):
//
//   Bounded admission — a FIFO queue of pending requests bounded both by
//     count (`max_queue`) and by total cost (`max_queued_cost`, where a
//     request costs its list length k). Offer() either enqueues or returns
//     an explicit shed verdict — work is rejected with a status, never
//     queued forever.
//
//   Pressure signal — after every served batch the server reports the
//     batch wall time, the batch size and the depth of outstanding work
//     (queue + batch). The controller keeps a sliding window of recent
//     *per-request* service times (batch seconds / batch size);
//     pressure = depth × recent p95 — an estimate, in seconds, of how long
//     the newest queued request will wait before it is scored.
//
//   Degradation ladder — when `degrade` is set, sustained pressure above
//     `pressure_step_down` steps the scoring tier down one rung
//     (double → float32 → int8) and sustained pressure below
//     `pressure_step_up` steps it back; each step requires
//     `hysteresis_batches` *consecutive* observations on the same side, so
//     the tier cannot flap on a single noisy batch. The gap between the
//     two thresholds is the hysteresis band. Two refinements keep the
//     ladder from oscillating under sustained overload:
//       * every step clears the observation window and both runs, so the
//         next decision is made from fresh measurements at the new tier
//         (stale slow-tier samples would otherwise overshoot the ladder);
//       * stepping back up additionally requires the offered-load EWMA to
//         fall below 75% of the load measured when the ladder last
//         stepped down. Low pressure at a degraded tier only
//         proves the *degraded* tier keeps up — without the guard the
//         ladder steps up, collapses, sheds, steps down again, forever.
//
// Thread-safe (one mutex; degrade_steps() and pressure() are lock-free
// reads). The controller is pure mechanism: it never scores, and the
// BatchServer (serve/server.h) surfaces every verdict through the metrics
// registry.
#ifndef TAXOREC_SERVE_ADMISSION_H_
#define TAXOREC_SERVE_ADMISSION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "serve/request.h"

namespace taxorec {

/// Admission verdict for one offered request.
enum class AdmitResult {
  kAdmitted,      // enqueued; will be served by a later ServeQueued/Drain
  kShedQueueFull, // queue at max_queue (or the serve-queue-full fault fired)
  kShedCost,      // queued cost budget exhausted
  kShedDraining,  // the server is draining; no new work is accepted
};

struct AdmissionOptions {
  /// Maximum queued requests; 0 = unbounded (no count-based shedding).
  size_t max_queue = 0;
  /// Maximum total queued cost (sum of request k's); 0 = unbounded.
  uint64_t max_queued_cost = 0;
  /// Enables the precision degradation ladder.
  bool degrade = false;
  /// Step the tier down when pressure exceeds this (seconds of estimated
  /// queue wait) for hysteresis_batches consecutive batches.
  double pressure_step_down = 0.050;
  /// Step the tier back up when pressure falls below this.
  double pressure_step_up = 0.010;
  /// Consecutive batches on one side of a threshold before a step.
  int hysteresis_batches = 3;
  /// Sliding-window length (batches) for the recent-p95 estimate.
  size_t pressure_window = 32;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Admits `request` into the bounded queue or sheds it with a verdict.
  AdmitResult Offer(const ServeRequest& request);

  /// Dequeues up to `max_n` requests in FIFO order into *out (appended).
  /// Returns the number taken.
  size_t Take(size_t max_n, std::vector<ServeRequest>* out);

  /// Rejects all future Offers with kShedDraining. Queued work stays
  /// takeable so a drain can finish it.
  void BeginDrain();
  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  size_t queue_depth() const;
  uint64_t queued_cost() const;

  /// Reports one served batch: its wall time, how many requests it
  /// scored, and the depth of outstanding work (queue + batch) when it
  /// started. Updates the pressure estimate and, when degradation is
  /// enabled, the hysteresis ladder.
  void ObserveBatch(double batch_seconds, size_t batch_requests,
                    size_t depth);

  /// depth × recent-p95 per-request service time at the last ObserveBatch
  /// (seconds of estimated queue wait). Lock-free.
  double pressure() const {
    return pressure_.load(std::memory_order_relaxed);
  }
  /// Current ladder position: 0 = configured tier, each step one rung
  /// down (double → float32 → int8). Lock-free.
  int degrade_steps() const {
    return degrade_steps_.load(std::memory_order_relaxed);
  }

  /// Offered-load EWMA (requests/second across Offer() calls, admitted or
  /// not), updated once per ObserveBatch.
  double OfferedRate() const;

  const AdmissionOptions& options() const { return options_; }

 private:
  /// p95 of the sliding per-request service-time window (0 with no
  /// observations). Requires mu_.
  double RecentP95Locked() const;
  void ResetLadderWindowLocked();

  const AdmissionOptions options_;
  mutable std::mutex mu_;
  std::deque<ServeRequest> queue_;
  uint64_t cost_in_queue_ = 0;
  std::vector<double> window_;  // ring of recent per-request service secs
  size_t window_next_ = 0;
  size_t window_filled_ = 0;
  int high_run_ = 0;  // consecutive batches above pressure_step_down
  int low_run_ = 0;   // consecutive batches below pressure_step_up
  double offered_rate_ewma_ = 0.0;  // requests/second, see OfferedRate()
  double rate_at_step_down_ = 0.0;  // offered EWMA at the last step down
  uint64_t offered_seen_ = 0;       // offered_ value at last ObserveBatch
  std::chrono::steady_clock::time_point last_observe_;
  std::atomic<uint64_t> offered_{0};
  std::atomic<bool> draining_{false};
  std::atomic<double> pressure_{0.0};
  std::atomic<int> degrade_steps_{0};
};

}  // namespace taxorec

#endif  // TAXOREC_SERVE_ADMISSION_H_
