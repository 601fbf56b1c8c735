// Per-subsystem heap accounting via tagged operator new/delete.
//
// Peak RSS (common/metrics.h) says how much the process used; it cannot
// say which subsystem used it. This layer replaces the global non-aligned
// operator new/delete (heap_stats.cc): every allocation is prefixed with a
// 16-byte header recording a magic word, the subsystem tag active on the
// allocating thread, and the requested size, so the matching delete always
// debits the *allocating* subsystem no matter which thread or scope frees
// the block — per-subsystem current_bytes can never drift negative.
//
// Subsystems register once by name (RegisterHeapSubsystem) and code tags
// phases with a RAII HeapScope (one thread-local store to enter/leave, far
// from any hot path — phases are epochs, rebuilds, snapshot builds, serve
// batches). Untagged allocations fall into the implicit "other" bucket.
// Counters are relaxed atomics; nothing here locks on the malloc path.
//
// Exports: PublishHeapStats() refreshes taxorec.heap.<subsystem>.
// {current,peak}_bytes gauges in the metrics registry — invoked by
// MetricsRegistry::SnapshotJson/State so metrics snapshots, timeseries
// windows, and telemetry run_end all see live values without extra
// plumbing.
//
// Degradation matrix (DESIGN.md §14): under tsan/asan the replacement is
// compiled out entirely — the sanitizer runtimes interpose the allocator
// themselves and must see the true malloc/free pairs — so HeapStatsEnabled
// is false, no gauges are published (no zeros), and tests skip. C++17
// over-aligned news (std::align_val_t) keep the library defaults and
// bypass the tag; AlignedBuffer (math/aligned.h) compensates by reporting
// its blocks through HeapAccountExternal.
#ifndef TAXOREC_COMMON_HEAP_STATS_H_
#define TAXOREC_COMMON_HEAP_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace taxorec {

/// Hard cap on distinct subsystems (slot table is a constinit array so
/// accounting works during static initialization). Index 0 is "other".
inline constexpr int kMaxHeapSubsystems = 16;

/// False when the replacement allocator is compiled out (sanitizers).
bool HeapStatsEnabled();

/// Registers (or finds) a subsystem tag by name. Returns 0 ("other") when
/// the table is full. Typical call-site pattern:
///   static const int kTag = RegisterHeapSubsystem("serve.snapshot");
///   HeapScope scope(kTag);
int RegisterHeapSubsystem(const std::string& name);

/// Subsystem tag active on the calling thread (0 = "other").
int CurrentHeapSubsystem();

/// Tags every allocation on the calling thread for the enclosing scope.
class HeapScope {
 public:
  explicit HeapScope(int subsystem);
  ~HeapScope();
  HeapScope(const HeapScope&) = delete;
  HeapScope& operator=(const HeapScope&) = delete;

 private:
  int prev_;
};

/// Folds externally managed memory (e.g. the over-aligned AlignedBuffer
/// blocks that bypass the tagged operator new) into subsystem `tag`'s
/// current/peak accounting. Pass negative `bytes` on release.
void HeapAccountExternal(int tag, int64_t bytes);

struct HeapSubsystemStats {
  std::string name;
  int64_t current_bytes = 0;
  int64_t peak_bytes = 0;
  uint64_t alloc_count = 0;
};

/// Per-subsystem stats for every registered name plus "other" and the
/// process-wide "total", skipping subsystems that never allocated. Empty
/// when disabled.
std::vector<HeapSubsystemStats> HeapStatsSnapshot();

/// Refreshes the taxorec.heap.<name>.{current,peak}_bytes gauges from the
/// snapshot. No-op (no gauges at all) when disabled.
void PublishHeapStats();

}  // namespace taxorec

#endif  // TAXOREC_COMMON_HEAP_STATS_H_
