// Comparison engine behind tools/bench_compare: diffs two BENCH_<name>.json
// documents (bench/bench_common.h, bench_micro_kernels) key by key.
//
// Both documents are flattened with FlattenJson, every numeric key present
// in both sides becomes a BenchDelta, and "gate" keys — wall-time metrics —
// fail the comparison when the current value regresses past
// base * (1 + tolerance). Non-gate keys (counters, rss, metadata) are
// reported but never gate, so a baseline survives incidental drift while
// still catching kernel slowdowns. The gating logic lives here (not in the
// tool) so bench_compare_test can exercise it without subprocesses.
#ifndef TAXOREC_COMMON_BENCH_DIFF_H_
#define TAXOREC_COMMON_BENCH_DIFF_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace taxorec {

/// Comparison policy. `gate_keys` are exact flattened paths
/// ("spmm.t1_seconds"); when empty, every key whose final segment ends in
/// "_seconds" gates (the wall-time convention of BENCH_<name>.json).
///
/// A `gate_keys` entry the baseline has but the candidate lacks fails the
/// comparison (MISSING): a gate that compares nothing must not pass. Keys
/// gated by the "_seconds" rule only report such drift.
///
/// A gated key present in the candidate but absent from the baseline
/// cannot regress numerically, so by default it only reports as a
/// `new-key` line; `require_baseline_keys` turns those into failures,
/// forcing a baseline refresh.
///
/// Two more cases gate nothing and are reported as SKIPPED, never as a
/// pass: a gated key whose baseline is <= 0 (no relative tolerance can
/// trip), and a `gate_keys` entry found in neither document.
struct BenchCompareOptions {
  double tolerance = 0.2;  // regression when cur > base * (1 + tolerance)
  std::vector<std::string> gate_keys;
  bool require_baseline_keys = false;  // gated new-keys fail the compare
};

/// One numeric key present in both documents.
struct BenchDelta {
  std::string key;
  double base = 0.0;
  double current = 0.0;
  double rel_change = 0.0;  // (current - base) / base; 0 when base == 0
  bool gated = false;       // participates in the pass/fail decision
  bool regressed = false;   // gated && beyond tolerance
  bool skipped = false;     // gated, but the baseline is <= 0
};

/// Full comparison outcome. `regression` is the tool's exit-code signal.
struct BenchCompareResult {
  std::vector<BenchDelta> deltas;        // sorted by key
  std::vector<std::string> only_base;    // other keys missing from current
  std::vector<std::string> only_current; // keys missing from baseline
  std::vector<std::string> new_gated_keys;  // gated subset of only_current
  /// Gate keys in the baseline but not in current (MISSING; each fails).
  std::vector<std::string> missing_gate_keys;
  /// Gate keys found in neither document (SKIPPED).
  std::vector<std::string> absent_gate_keys;
  bool regression = false;

  /// Gated keys that compared nothing: deltas with `skipped` set plus
  /// absent_gate_keys.
  size_t skipped_gates() const;
};

/// Diffs two BENCH json documents (baseline first). Returns
/// InvalidArgument when either side fails to parse.
Status CompareBenchJson(std::string_view baseline_json,
                        std::string_view current_json,
                        const BenchCompareOptions& options,
                        BenchCompareResult* result);

/// CompareBenchJson over files. NotFound/IOError on unreadable paths.
Status CompareBenchFiles(const std::string& baseline_path,
                         const std::string& current_path,
                         const BenchCompareOptions& options,
                         BenchCompareResult* result);

/// Human-readable per-key delta table ("KEY base -> current (+x.x%) [GATE]"
/// rows, REGRESSION, MISSING and SKIPPED markers, missing-key sections, and
/// a count of the skipped gates).
std::string FormatBenchComparison(const BenchCompareResult& result);

}  // namespace taxorec

#endif  // TAXOREC_COMMON_BENCH_DIFF_H_
