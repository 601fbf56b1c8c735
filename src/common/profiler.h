// Aggregating profiler over the TraceSpan sites (common/trace.h).
//
// Where tracing records every span occurrence into a bounded ring, the
// profiler rolls spans up as they complete: each thread's span-table entry
// (common/span_table.h) keeps a tree of call paths
// ("train_loop/fit_epoch/spmm") with a cursor on the innermost open span,
// and every exit folds {1 call, inclusive duration} into the path's node.
// Memory is bounded by the number of distinct call paths, so arbitrarily
// long runs profile in a few KiB with nothing dropped.
//
// Disarmed (the default) a span costs the same single relaxed load as
// disarmed tracing — the two consumers share one instrument-mode word —
// and profiling never touches model numerics: a profiled run is
// bit-identical to a bare run at any --threads value (profiler_test).
//
// MergedProfile folds every thread's tree into one deterministic tree
// (children sorted by site name; sums/min/max are order-independent) with
// per-site {calls, inclusive time, exclusive/self time, min/max}, where
// self = inclusive − Σ(direct children inclusive).
// Serializations:
//   - ProfileJsonLines / WriteProfileJsonl: flat one-object-per-site JSONL
//     in depth-first preorder (the `--profile-out` format, parseable with
//     ParseFlatJsonObject like every telemetry stream, rendered by
//     `telemetry_report --profile`);
//   - ProfileJsonArray: the same objects as one JSON array (embedded as
//     the `profile` section of BENCH_<name>.json).
#ifndef TAXOREC_COMMON_PROFILER_H_
#define TAXOREC_COMMON_PROFILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace taxorec {

/// One site of the merged profile tree.
struct ProfileNode {
  std::string name;           // span name ("" for the synthetic root)
  uint64_t calls = 0;
  uint64_t inclusive_us = 0;  // wall time between span enter and exit
  uint64_t self_us = 0;       // inclusive − Σ(children inclusive), >= 0
  uint64_t min_us = 0;        // fastest single call (inclusive)
  uint64_t max_us = 0;        // slowest single call (inclusive)
  std::vector<ProfileNode> children;  // sorted by name
};

/// True while spans are being aggregated.
bool ProfilingEnabled();

/// Arms span aggregation. Aggregates keep accumulating across Start/Stop
/// cycles until ClearProfile.
void StartProfiling();

/// Disarms span aggregation (spans armed at construction still fold in
/// once when they exit).
void StopProfiling();

/// Zeroes every site aggregate (test isolation). Call with no armed spans
/// in flight; an open armed span that exits after a clear is dropped.
void ClearProfile();

/// Deterministic merge of every thread's aggregates. The returned root is
/// synthetic (name "", zero stats); sites with no recorded calls are
/// pruned. Thread arrival order never changes the result: counts and
/// times sum, min/max fold, and children sort by name.
ProfileNode MergedProfile();

/// Flat site objects in depth-first preorder (children by name), each with
/// exactly six keys, e.g.
/// {"path":"train_loop/fit_epoch/spmm","calls":3,"inclusive_us":...,
///  "self_us":...,"min_us":...,"max_us":...}.
std::vector<std::string> ProfileJsonLines();

/// ProfileJsonLines as a single JSON array ("[]" when empty).
std::string ProfileJsonArray();

/// Writes ProfileJsonLines to `path`, one object per line (the
/// --profile-out format; render with `telemetry_report --profile`).
Status WriteProfileJsonl(const std::string& path);

}  // namespace taxorec

#endif  // TAXOREC_COMMON_PROFILER_H_
