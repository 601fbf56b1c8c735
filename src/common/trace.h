// Scoped trace spans with Chrome trace_event export.
//
// Production code brackets interesting regions with an RAII TraceSpan:
//
//   void CsrMatrix::MultiplyAccum(...) {
//     TraceSpan span("spmm");
//     ...
//   }
//
// Instrumentation is disarmed by default: the constructor is a single
// relaxed atomic load of the shared instrument-mode word and the
// destructor a branch, so disarmed spans cost a predictable branch and
// never touch shared state — `--threads` bit-identity and hot-path
// timings are unaffected (the <3% armed-SpMM budget is asserted by
// bench_micro_kernels). The same mode word arms two consumers of the one
// span site:
//   - tracing (StartTracing / `--trace-out`): each completed span records
//     {name, thread, start, duration} into a per-thread ring buffer
//     (fixed capacity; oldest events are overwritten and counted as
//     dropped). WriteChromeTrace drains every buffer into a JSON file
//     loadable by chrome://tracing / Perfetto.
//   - profiling (StartProfiling / `--profile-out`, common/profiler.h):
//     spans roll up per call path into aggregate wall-time statistics.
// Both record into one per-thread span table (common/span_table.h): an
// armed span looks up its thread's entry and takes that entry's lock once
// on enter (when profiled) and once on exit, where it reads the clock.
//
// Span names must be string literals (or otherwise outlive the drain).
#ifndef TAXOREC_COMMON_TRACE_H_
#define TAXOREC_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace taxorec {

namespace internal {
// Bitmask of armed span consumers; disarmed spans read it once, relaxed.
inline constexpr uint32_t kTraceArmed = 1u << 0;
inline constexpr uint32_t kProfileArmed = 1u << 1;
extern std::atomic<uint32_t> g_instrument_mode;
/// Opens `name` as a child of the calling thread's innermost profiled span.
void ProfileEnter(const char* name);
/// Folds `dur_us` into the innermost open node and closes it.
void ProfileExit(const char* name, uint64_t dur_us);
/// Closes a span armed with `mode`: reads the clock, then records the ring
/// event and/or folds the profile node.
void SpanExit(uint32_t mode, const char* name, uint64_t start_us);
/// Microseconds since process start (steady clock).
uint64_t TraceNowMicros();
}  // namespace internal

/// True while spans are being collected for the Chrome trace.
inline bool TracingEnabled() {
  return (internal::g_instrument_mode.load(std::memory_order_relaxed) &
          internal::kTraceArmed) != 0;
}

/// Arms span collection. Buffers keep accumulating across Start/Stop
/// cycles until ClearTraceBuffers.
void StartTracing();

/// Disarms span collection (in-flight spans on other threads may still
/// record once). Call before WriteChromeTrace.
void StopTracing();

/// Drops every buffered event and dropped-event counter (test isolation).
void ClearTraceBuffers();

/// Buffered events across all threads (drain size for tests).
size_t TraceEventCount();

/// Events overwritten by the per-thread rings since the last clear.
uint64_t TraceDroppedCount();

/// Fixed per-thread ring capacity (oldest events overwritten past this).
size_t TraceRingCapacity();

/// Records an externally-timed span into the calling thread's ring when
/// tracing is armed (no-op otherwise — one relaxed load). Used for spans
/// whose endpoints are captured as raw internal::TraceNowMicros() stamps
/// and assembled after the fact, e.g. per-request serve timelines
/// (queue wait / score / re-rank) that only become known at batch end.
/// `name` must be a string literal (or otherwise outlive the drain).
void RecordManualSpan(const char* name, uint64_t start_us, uint64_t dur_us);

/// Writes all buffered spans as a Chrome trace_event JSON object
/// ({"traceEvents": [...]}) to `path`.
Status WriteChromeTrace(const std::string& path);

/// Serializes the buffered spans to the Chrome trace JSON string.
std::string ChromeTraceJson();

/// RAII span: records the enclosing scope into whichever consumers were
/// armed at construction time (the mode snapshot keeps profile enter and
/// exit paired even across Start/Stop calls mid-span), and compiles down
/// to one relaxed load plus a branch when disarmed.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : mode_(internal::g_instrument_mode.load(std::memory_order_relaxed)),
        name_(name),
        start_us_(mode_ != 0 ? internal::TraceNowMicros() : 0) {
    if (mode_ & internal::kProfileArmed) internal::ProfileEnter(name_);
  }

  ~TraceSpan() {
    if (mode_ != 0) internal::SpanExit(mode_, name_, start_us_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const uint32_t mode_;
  const char* name_;
  uint64_t start_us_;
};

}  // namespace taxorec

#endif  // TAXOREC_COMMON_TRACE_H_
