// Deterministic, site-keyed fault injection for robustness tests and
// recovery drills.
//
// Production code marks injectable failure sites with TAXOREC_FAULT:
//
//   if (TAXOREC_FAULT(faults::kGradNan, epoch)) { /* poison a gradient */ }
//
// The registry is off by default: the macro short-circuits on a single
// relaxed atomic load, so disarmed sites cost one predictable branch and
// no locking. Tests (or `taxorec_cli train --inject-fault site@epoch`)
// arm a site for a specific epoch (or any epoch) with a bounded shot
// count; each match consumes one shot, so an injected fault fires a
// deterministic number of times and recovery can be asserted exactly.
#ifndef TAXOREC_COMMON_FAULT_INJECTION_H_
#define TAXOREC_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace taxorec {

/// Well-known fault sites wired into the library.
namespace faults {
/// Poisons one accumulated gradient value with NaN inside a training epoch
/// (TaxoRecModel / HyperMl training steps).
inline constexpr char kGradNan[] = "grad-nan";
/// Fails Checkpoint::WriteFile with IOError before any byte is written.
inline constexpr char kCheckpointWrite[] = "ckpt-write";
/// Stalls one serving sub-batch for kServeSlowKernelStallMs inside the
/// BatchServer fan-out (simulates a slow scoring kernel; drives deadline
/// sheds and late completions in the robustness drills).
inline constexpr char kServeSlowKernel[] = "serve-slow-kernel";
/// Fails a CompactSnapshot build inside the FrozenModel constructor; the
/// model falls back to the double tier instead of crashing.
inline constexpr char kServeSnapshotLoad[] = "serve-snapshot-load";
/// Forces one AdmissionController::Offer to report a full queue.
inline constexpr char kServeQueueFull[] = "serve-queue-full";

/// Stall injected per tripped serving sub-batch by kServeSlowKernel.
inline constexpr int kServeSlowKernelStallMs = 25;
}  // namespace faults

/// Process-wide fault registry (singleton). Thread-safe.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  /// Arms `count` shots at `site`. epoch < 0 matches any epoch.
  void Arm(const std::string& site, int64_t epoch = -1, int count = 1);

  /// Parses "site" or "site@epoch" (e.g. "grad-nan@3") and arms one shot.
  Status ArmFromSpec(const std::string& spec);

  /// Disarms every site and clears fired counters.
  void Reset();

  /// True while any site still has unfired shots (lock-free).
  bool armed() const {
    return armed_shots_.load(std::memory_order_relaxed) > 0;
  }

  /// Returns true when an armed spec matches (site, epoch), consuming one
  /// shot. epoch < 0 on the call site matches epoch-agnostic specs only.
  bool Trip(std::string_view site, int64_t epoch = -1);

  /// Shots fired at `site` since the last Reset (for test assertions).
  int fired(const std::string& site) const;

 private:
  FaultInjector() = default;

  struct Spec {
    int64_t epoch = -1;  // -1 = any epoch
    int remaining = 0;
  };

  mutable std::mutex mu_;
  std::atomic<int> armed_shots_{0};
  std::map<std::string, std::vector<Spec>, std::less<>> specs_;
  std::map<std::string, int, std::less<>> fired_;
};

/// Fast disarmed-path check used by the macro.
inline bool FaultInjectionArmed() { return FaultInjector::Instance().armed(); }

/// Evaluates to true when an armed fault fires at (site, epoch).
#define TAXOREC_FAULT(site, epoch)       \
  (::taxorec::FaultInjectionArmed() &&   \
   ::taxorec::FaultInjector::Instance().Trip((site), (epoch)))

}  // namespace taxorec

#endif  // TAXOREC_COMMON_FAULT_INJECTION_H_
