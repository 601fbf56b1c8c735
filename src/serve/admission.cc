#include "serve/admission.h"

#include <algorithm>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/log.h"
#include "common/metrics.h"

namespace taxorec {
namespace {

// The ladder steps back up only once the offered-load EWMA has fallen
// below this fraction of the load measured at the last step down (see the
// oscillation note in admission.h).
constexpr double kStepUpLoadFraction = 0.75;

}  // namespace

const char* ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kLate:
      return "late";
    case ServeStatus::kShedQueueFull:
      return "shed_queue_full";
    case ServeStatus::kShedCost:
      return "shed_cost";
    case ServeStatus::kShedDeadline:
      return "shed_deadline";
    case ServeStatus::kShedDraining:
      return "shed_draining";
  }
  return "unknown";
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options), last_observe_(std::chrono::steady_clock::now()) {
  TAXOREC_CHECK(options_.pressure_step_up <= options_.pressure_step_down);
  TAXOREC_CHECK(options_.hysteresis_batches > 0);
  TAXOREC_CHECK(options_.pressure_window > 0);
  window_.resize(options_.pressure_window, 0.0);
}

AdmitResult AdmissionController::Offer(const ServeRequest& request) {
  offered_.fetch_add(1, std::memory_order_relaxed);
  if (draining()) return AdmitResult::kShedDraining;
  if (TAXOREC_FAULT(faults::kServeQueueFull, -1)) {
    return AdmitResult::kShedQueueFull;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.max_queue > 0 && queue_.size() >= options_.max_queue) {
    return AdmitResult::kShedQueueFull;
  }
  const uint64_t cost = static_cast<uint64_t>(request.k);
  if (options_.max_queued_cost > 0 &&
      cost_in_queue_ + cost > options_.max_queued_cost) {
    return AdmitResult::kShedCost;
  }
  queue_.push_back(request);
  cost_in_queue_ += cost;
  return AdmitResult::kAdmitted;
}

size_t AdmissionController::Take(size_t max_n, std::vector<ServeRequest>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = std::min(max_n, queue_.size());
  for (size_t i = 0; i < n; ++i) {
    cost_in_queue_ -= static_cast<uint64_t>(queue_.front().k);
    out->push_back(queue_.front());
    queue_.pop_front();
  }
  return n;
}

void AdmissionController::BeginDrain() {
  draining_.store(true, std::memory_order_relaxed);
}

size_t AdmissionController::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

uint64_t AdmissionController::queued_cost() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cost_in_queue_;
}

double AdmissionController::RecentP95Locked() const {
  if (window_filled_ == 0) return 0.0;
  std::vector<double> sorted(window_.begin(),
                             window_.begin() + window_filled_);
  std::sort(sorted.begin(), sorted.end());
  const size_t i = std::min(sorted.size() - 1,
                            static_cast<size_t>(0.95 * sorted.size()));
  return sorted[i];
}

double AdmissionController::OfferedRate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return offered_rate_ewma_;
}

void AdmissionController::ResetLadderWindowLocked() {
  window_next_ = 0;
  window_filled_ = 0;
  high_run_ = 0;
  low_run_ = 0;
}

void AdmissionController::ObserveBatch(double batch_seconds,
                                       size_t batch_requests, size_t depth) {
  static Gauge* pressure_gauge =
      MetricsRegistry::Instance().GetGauge("taxorec.serve.pressure");
  static Gauge* depth_gauge =
      MetricsRegistry::Instance().GetGauge("taxorec.serve.queue_depth");
  static Gauge* steps_gauge =
      MetricsRegistry::Instance().GetGauge("taxorec.serve.degrade_steps");

  std::lock_guard<std::mutex> lock(mu_);
  window_[window_next_] =
      batch_seconds / static_cast<double>(std::max<size_t>(1, batch_requests));
  window_next_ = (window_next_ + 1) % window_.size();
  window_filled_ = std::min(window_filled_ + 1, window_.size());

  // Offered-load EWMA across observe intervals; the demand signal the
  // step-up guard compares against.
  const auto now = std::chrono::steady_clock::now();
  const double elapsed =
      std::chrono::duration<double>(now - last_observe_).count();
  const uint64_t offered_total = offered_.load(std::memory_order_relaxed);
  if (elapsed > 1e-9) {
    const double instant =
        static_cast<double>(offered_total - offered_seen_) / elapsed;
    constexpr double kAlpha = 0.3;
    offered_rate_ewma_ = kAlpha * instant + (1.0 - kAlpha) * offered_rate_ewma_;
  }
  offered_seen_ = offered_total;
  last_observe_ = now;

  const double pressure = static_cast<double>(depth) * RecentP95Locked();
  pressure_.store(pressure, std::memory_order_relaxed);
  pressure_gauge->Set(pressure);
  depth_gauge->Set(static_cast<double>(depth));

  if (!options_.degrade) return;
  // Hysteresis ladder: a step requires hysteresis_batches consecutive
  // observations past a threshold; the band between the thresholds resets
  // both runs, so the tier never flaps on a single noisy batch.
  if (pressure > options_.pressure_step_down) {
    ++high_run_;
    low_run_ = 0;
  } else if (pressure < options_.pressure_step_up) {
    ++low_run_;
    high_run_ = 0;
  } else {
    high_run_ = 0;
    low_run_ = 0;
  }
  int steps = degrade_steps_.load(std::memory_order_relaxed);
  // Step up only once demand has genuinely receded: low pressure at a
  // degraded tier proves nothing about the tier above it (header note).
  // A zero recorded rate means the load was never measurable — let the
  // ladder recover rather than pinning it down forever.
  const bool load_receded =
      rate_at_step_down_ <= 0.0 ||
      offered_rate_ewma_ < kStepUpLoadFraction * rate_at_step_down_;
  if (high_run_ >= options_.hysteresis_batches && steps < 2) {
    ++steps;
    rate_at_step_down_ = offered_rate_ewma_;
    ResetLadderWindowLocked();
    degrade_steps_.store(steps, std::memory_order_relaxed);
    // Rate-limited: a saturated sweep can step (and re-step after window
    // resets) many times per second; one line per second keeps the signal
    // without flooding stderr. Exact step history stays in the
    // degrade_steps gauge / stats windows.
    TAXOREC_LOG_RATELIMITED(INFO, 1.0)
        << "serve pressure high; stepping precision down"
        << Kv("pressure", pressure) << Kv("steps", steps)
        << Kv("offered_rate", offered_rate_ewma_);
  } else if (low_run_ >= options_.hysteresis_batches && steps > 0 &&
             load_receded) {
    --steps;
    ResetLadderWindowLocked();
    degrade_steps_.store(steps, std::memory_order_relaxed);
    TAXOREC_LOG_RATELIMITED(INFO, 1.0)
        << "serve pressure cleared; stepping precision up"
        << Kv("pressure", pressure) << Kv("steps", steps)
        << Kv("offered_rate", offered_rate_ewma_);
  }
  steps_gauge->Set(
      static_cast<double>(degrade_steps_.load(std::memory_order_relaxed)));
}

}  // namespace taxorec
