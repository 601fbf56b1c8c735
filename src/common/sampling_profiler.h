// Timer-based sampling CPU profiler with flamegraph (folded stack) export.
//
// The aggregating span profiler (common/profiler.h) only sees code that
// was bracketed with a TraceSpan; the sampling profiler sees everything.
// Each registered thread gets a POSIX per-thread CPU-time timer
// (timer_create on the thread's cpu clock, SIGEV_THREAD_ID → SIGPROF)
// firing every `interval_us` of *consumed* CPU. The async-signal-safe
// handler walks the frame-pointer chain from the interrupted context
// (ucontext RIP/RBP, bounds-checked against the thread's stack extent —
// the build compiles with -fno-omit-frame-pointer for exactly this) and
// pushes the raw PC vector into a lock-free ring: one fetch_add to claim
// a slot, no allocation, no locks. Symbolization (dladdr +
// __cxa_demangle; executables link with -rdynamic so internal symbols
// resolve; symbol-less frames print as module+offset) happens at dump
// time, never in the handler.
//
// Output is the flamegraph "folded stack" format — one
// `frame;frame;frame count` line per distinct stack, root first — via
// --flame-out on taxorec_cli/taxorec_serve/bench binaries, rendered by
// `telemetry_report --flame`.
//
// Discipline matches the other consumers (DESIGN.md §14): disarmed cost
// is one relaxed load (there is no timer at all when disarmed, and
// registration is a per-thread-creation event, not a hot path), sampling
// never touches model state, so results stay bit-identical at any
// --threads. Under tsan/asan the whole subsystem compiles to an
// Unavailable stub — see sampling_profiler.cc for why.
#ifndef TAXOREC_COMMON_SAMPLING_PROFILER_H_
#define TAXOREC_COMMON_SAMPLING_PROFILER_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"

namespace taxorec {

struct SamplingOptions {
  /// Thread CPU time between samples. The timers fire on the scheduler
  /// tick, so an interval below one tick gives one sample per tick (about
  /// 250 per CPU-second at CONFIG_HZ=250, not the 1000 this asks for;
  /// SamplingRate reports what a run got). ~2 µs of handler per sample
  /// keeps the armed SpMM overhead under bench_micro_kernels' 5% budget.
  uint64_t interval_us = 1000;
};

/// What the timers delivered against what the interval asked for.
struct SampleRate {
  double cpu_seconds = 0.0;  // CPU time of the threads while timers were armed
  uint64_t samples = 0;      // kept and dropped
  double requested_per_cpu_second = 0.0;  // of the last StartSampling
  double per_cpu_second() const {
    return cpu_seconds > 0.0 ? static_cast<double>(samples) / cpu_seconds
                             : 0.0;
  }
};

/// False when the subsystem is stubbed out (sanitizer builds, non-Linux).
bool SamplingProfilerSupported();

/// True while timers are armed.
bool SamplingActive();

/// Installs the SIGPROF handler, allocates the ring, and starts a
/// per-thread CPU-time timer on every registered thread (the calling
/// thread is registered implicitly). Unavailable when stubbed out or when
/// the first timer cannot be created — callers treat that as "run without
/// a flame profile".
Status StartSampling(const SamplingOptions& options = SamplingOptions());

/// Disarms and deletes every timer. Samples survive until ClearSamples.
void StopSampling();

/// Drops the samples, the drop counter and the CPU time (test isolation).
void ClearSamples();

/// Samples currently in the ring.
uint64_t SampleCount();

/// Samples dropped because the ring was full.
uint64_t SampleDroppedCount();

/// The rate over every StartSampling..StopSampling span since the last
/// ClearSamples.
SampleRate SamplingRate();

/// Symbolized, deterministic (name-sorted) fold of the ring:
/// "root;caller;leaf" → sample count.
std::map<std::string, uint64_t> FoldedStacks();

/// Writes FoldedStacks as flamegraph-collapsed lines ("stack count\n")
/// and logs SamplingRate, as a WARN when below half the requested rate.
Status WriteFoldedStacks(const std::string& path);

/// Registers the calling thread for sampling: records its CPU clock and
/// stack extent, and starts a timer immediately when sampling is armed.
/// Worker threads call this on startup (common/parallel.cc); disarmed it
/// is a registry append, nowhere near any hot path.
void SamplingRegisterCurrentThread();

/// Unregisters (and stops the timer of) the calling thread. Must be
/// called before a registered thread exits.
void SamplingUnregisterCurrentThread();

/// RAII register/unregister for pool worker bodies.
class SamplingThreadScope {
 public:
  SamplingThreadScope() { SamplingRegisterCurrentThread(); }
  ~SamplingThreadScope() { SamplingUnregisterCurrentThread(); }
  SamplingThreadScope(const SamplingThreadScope&) = delete;
  SamplingThreadScope& operator=(const SamplingThreadScope&) = delete;
};

namespace internal {
/// Frame name for a sampled pc: the demangled symbol when the dynamic
/// symbol table has one (executables link -rdynamic), else the module
/// basename plus the offset from its load base ("libc.so.6+0x2724a"),
/// else the raw "0x…" address when no module contains the pc.
std::string SymbolizePc(uintptr_t pc);
}  // namespace internal

}  // namespace taxorec

#endif  // TAXOREC_COMMON_SAMPLING_PROFILER_H_
