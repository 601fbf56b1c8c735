// Hardware resource counters on trace sites (perf_event_open groups).
//
// Wall time alone cannot say *why* a region is slow; the serving tiers and
// SpMM kernels are memory-bandwidth stories that need IPC and cache-miss
// evidence (DESIGN.md §14). This layer opens one perf_event counter group
// per thread — cycles (leader), instructions, cache-references,
// cache-misses, branch-misses, stalled-cycles-backend — and attaches it to
// the call-path profiler (common/profiler.h): arming profiling arms the
// group whenever the PMU probe passes, every profiled span snapshots the
// group on enter and exit, and the delta folds into the span's call-path
// node beside its wall time.
//
// Derived metrics (IPC, CPI, LLC miss rate, branch miss rate, stalled
// fraction) are computed at export time: as fields on the --profile-out
// path lines (ProfileJsonLines), and summed by site name into the "perf"
// section of every BENCH_<name>.json (PerfCountersJsonObject) that the
// bench_compare gate flattens into perf.<site>.* keys.
//
// Graceful degradation: containers and locked-down CI typically have no
// PMU (perf_event_open fails with ENOENT/EACCES/EPERM). StartProfiling
// probes availability once, WARNs once with the errno and the
// perf_event_paranoid hint, and profiles wall time only from then on —
// counter fields and the "perf" section are omitted entirely (no zeros),
// so BENCH output is byte-stable with or without counters. Disarmed spans
// still cost exactly one relaxed load (the shared instrument-mode word in
// common/trace.h), preserving --threads bit-identity.
#ifndef TAXOREC_COMMON_PERF_COUNTERS_H_
#define TAXOREC_COMMON_PERF_COUNTERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace taxorec {

class JsonWriter;

/// One perf_event in a group: `type`/`config` mirror the
/// perf_event_attr fields (PERF_TYPE_HARDWARE + PERF_COUNT_HW_* for the
/// standard set; tests use PERF_TYPE_SOFTWARE events, which count even on
/// machines without a PMU). `name` labels the value in exports.
struct PerfEventSpec {
  uint32_t type = 0;
  uint64_t config = 0;
  const char* name = "";
};

/// A perf_event_open counter group pinned to the calling thread. The first
/// spec is the group leader; members that fail to open are skipped (their
/// opened() slot stays false) so a partially capable PMU still yields the
/// events it has. Reads return multiplex-scaled counts
/// (PERF_FORMAT_TOTAL_TIME_ENABLED/RUNNING), 0 for unopened members.
class PerfEventGroup {
 public:
  PerfEventGroup() = default;
  ~PerfEventGroup();
  PerfEventGroup(const PerfEventGroup&) = delete;
  PerfEventGroup& operator=(const PerfEventGroup&) = delete;

  /// Opens the group on the calling thread. Unavailable when the leader
  /// cannot be opened (no PMU / permission denied); the error message
  /// carries strerror(errno).
  Status Open(const std::vector<PerfEventSpec>& specs);

  bool open() const { return leader_ >= 0; }
  size_t size() const { return opened_.size(); }
  const std::vector<bool>& opened() const { return opened_; }

  /// Reads every member (one group read syscall), multiplex-scaled, into
  /// `values` (resized to size(); unopened slots read 0).
  Status Read(std::vector<uint64_t>* values) const;

  void Close();

 private:
  std::vector<int> fds_;      // -1 for members that failed to open
  std::vector<bool> opened_;
  int leader_ = -1;
};

/// Indices of the standard hardware set (HardwarePerfSpecs order).
enum PerfHwEvent {
  kPerfCycles = 0,
  kPerfInstructions,
  kPerfCacheReferences,
  kPerfCacheMisses,
  kPerfBranchMisses,
  kPerfStalledCycles,
  kPerfHwEventCount
};

/// The standard hardware counter group armed with profiling.
const std::vector<PerfEventSpec>& HardwarePerfSpecs();

/// Counter deltas of one call-path node (or one site, summed by name),
/// over every counted call on every thread. `have[i]` is true when event
/// i opened on at least one contributing thread; absent events are
/// omitted from exports.
struct PerfSiteCounters {
  uint64_t enters = 0;  // calls with a counter reading
  uint64_t counts[kPerfHwEventCount] = {};
  bool have[kPerfHwEventCount] = {};

  void Add(const PerfSiteCounters& other);

  // Derived rates; negative when the inputs are absent (omitted from
  // JSON — "zeros omitted" is what keeps counterless runs byte-stable).
  double Ipc() const;             // instructions / cycles
  double Cpi() const;             // cycles / instructions (gateable: up = bad)
  double LlcMissRate() const;     // cache-misses / cache-references
  double BranchMissRate() const;  // branch-misses / instructions
  double StalledFrac() const;     // stalled-cycles / cycles

  /// Writes the present counts (named by the armed event set) and rates
  /// as keys of the object `w` is inside.
  void WriteJsonFields(JsonWriter* w) const;
};

/// True when the hardware group can be opened on this machine. Probes once
/// (cached); the failing probe WARNs once with the errno and a
/// /proc/sys/kernel/perf_event_paranoid hint.
bool PerfCountersSupported();

/// {"<site>": {"enters": N, "cycles": ..., "ipc": ...}, ...}: the merged
/// profile's counter deltas summed by site name (nested spans of one name
/// add up), for the "perf" section of BENCH_<name>.json. Empty string when
/// no counter was read — callers omit the section entirely.
std::string PerfCountersJsonObject();

namespace internal {
/// Test hook: the next StartProfiling opens each thread's group with
/// `specs` (at most kPerfHwEventCount events; software events count
/// without a PMU) instead of probing for the hardware set. nullptr
/// restores the hardware set. `specs` must outlive every armed span.
void UseCounterSpecsForTest(const std::vector<PerfEventSpec>* specs);
}  // namespace internal

}  // namespace taxorec

#endif  // TAXOREC_COMMON_PERF_COUNTERS_H_
