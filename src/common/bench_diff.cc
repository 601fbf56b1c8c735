#include "common/bench_diff.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "common/json.h"

namespace taxorec {
namespace {

/// Numeric keys compare as numbers; strings/bools/null are skipped (they
/// diff as missing/extra only when the key set itself changes).
bool ParseNumeric(const std::string& text, double* value) {
  if (text.empty()) return false;
  const char c = text[0];
  if (c != '-' && (c < '0' || c > '9')) return false;
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0';
}

/// Default gate: the final path segment ends in "_seconds" (wall-time
/// convention of BENCH json).
bool IsWallTimeKey(const std::string& key) {
  const size_t dot = key.rfind('.');
  const std::string leaf = dot == std::string::npos ? key : key.substr(dot + 1);
  static constexpr std::string_view kSuffix = "_seconds";
  return leaf.size() >= kSuffix.size() &&
         leaf.compare(leaf.size() - kSuffix.size(), kSuffix.size(), kSuffix) ==
             0;
}

bool IsGated(const std::string& key, const BenchCompareOptions& options) {
  if (options.gate_keys.empty()) return IsWallTimeKey(key);
  return std::find(options.gate_keys.begin(), options.gate_keys.end(), key) !=
         options.gate_keys.end();
}

}  // namespace

size_t BenchCompareResult::skipped_gates() const {
  size_t n = absent_gate_keys.size();
  for (const BenchDelta& d : deltas) n += d.skipped ? 1 : 0;
  return n;
}

Status CompareBenchJson(std::string_view baseline_json,
                        std::string_view current_json,
                        const BenchCompareOptions& options,
                        BenchCompareResult* result) {
  *result = BenchCompareResult();
  std::map<std::string, std::string> base, cur;
  std::string error;
  if (!FlattenJson(baseline_json, &base, &error)) {
    return Status::InvalidArgument("baseline json: " + error);
  }
  if (!FlattenJson(current_json, &cur, &error)) {
    return Status::InvalidArgument("current json: " + error);
  }
  for (const auto& [key, base_text] : base) {
    const auto it = cur.find(key);
    if (it == cur.end()) {
      // A key the gate names but the bench stopped writing compares
      // nothing, so it fails; other drift only reports.
      if (!options.gate_keys.empty() && IsGated(key, options)) {
        result->missing_gate_keys.push_back(key);
        result->regression = true;
      } else {
        result->only_base.push_back(key);
      }
      continue;
    }
    double base_value = 0.0, cur_value = 0.0;
    if (!ParseNumeric(base_text, &base_value) ||
        !ParseNumeric(it->second, &cur_value)) {
      continue;
    }
    BenchDelta d;
    d.key = key;
    d.base = base_value;
    d.current = cur_value;
    d.rel_change =
        base_value != 0.0 ? (cur_value - base_value) / base_value : 0.0;
    d.gated = IsGated(key, options);
    d.skipped = d.gated && base_value <= 0.0;
    d.regressed = d.gated && !d.skipped &&
                  cur_value > base_value * (1.0 + options.tolerance);
    if (d.regressed) result->regression = true;
    result->deltas.push_back(std::move(d));
  }
  for (const auto& [key, text] : cur) {
    if (base.find(key) != base.end()) continue;
    result->only_current.push_back(key);
    // A gated key with no baseline entry has nothing to regress against:
    // surface it as a new-key so stale baselines are visible, and fail
    // outright in strict mode.
    double ignored = 0.0;
    if (IsGated(key, options) && ParseNumeric(text, &ignored)) {
      result->new_gated_keys.push_back(key);
      if (options.require_baseline_keys) result->regression = true;
    }
  }
  for (const std::string& key : options.gate_keys) {
    if (base.count(key) == 0 && cur.count(key) == 0) {
      result->absent_gate_keys.push_back(key);
    }
  }
  // std::map iteration already yields sorted keys; the vectors inherit it.
  return Status::OK();
}

Status CompareBenchFiles(const std::string& baseline_path,
                         const std::string& current_path,
                         const BenchCompareOptions& options,
                         BenchCompareResult* result) {
  const auto slurp = [](const std::string& path,
                        std::string* out) -> Status {
    std::ifstream in(path);
    if (!in) return Status::NotFound("cannot open: " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    if (in.bad()) return Status::IOError("read failed: " + path);
    *out = ss.str();
    return Status::OK();
  };
  std::string base_json, cur_json;
  TAXOREC_RETURN_NOT_OK(slurp(baseline_path, &base_json));
  TAXOREC_RETURN_NOT_OK(slurp(current_path, &cur_json));
  return CompareBenchJson(base_json, cur_json, options, result);
}

std::string FormatBenchComparison(const BenchCompareResult& result) {
  std::string out;
  char buf[256];
  size_t width = 4;  // "key" header floor
  for (const BenchDelta& d : result.deltas) {
    width = std::max(width, d.key.size());
  }
  std::snprintf(buf, sizeof(buf), "%-*s %16s %16s %9s\n",
                static_cast<int>(width), "key", "baseline", "current",
                "delta");
  out += buf;
  for (const BenchDelta& d : result.deltas) {
    std::snprintf(buf, sizeof(buf), "%-*s %16.6g %16.6g %+8.1f%%%s%s\n",
                  static_cast<int>(width), d.key.c_str(), d.base, d.current,
                  d.rel_change * 100.0, d.gated ? "  [gate]" : "",
                  d.regressed ? "  REGRESSION"
                  : d.skipped ? "  SKIPPED (baseline <= 0)"
                              : "");
    out += buf;
  }
  for (const std::string& key : result.missing_gate_keys) {
    out += "MISSING (gated, in baseline, absent from current): " + key + "\n";
  }
  for (const std::string& key : result.absent_gate_keys) {
    out += "SKIPPED (absent from both files): " + key + "\n";
  }
  for (const std::string& key : result.only_base) {
    out += "missing from current: " + key + "\n";
  }
  for (const std::string& key : result.only_current) {
    const bool gated =
        std::find(result.new_gated_keys.begin(), result.new_gated_keys.end(),
                  key) != result.new_gated_keys.end();
    out += "new-key (no baseline): " + key + (gated ? "  [gate]" : "") + "\n";
  }
  if (const size_t skipped = result.skipped_gates(); skipped > 0) {
    std::snprintf(buf, sizeof(buf),
                  "SKIPPED: %zu gated key(s) compared nothing (%zu absent "
                  "from both files)\n",
                  skipped, result.absent_gate_keys.size());
    out += buf;
  }
  if (!result.new_gated_keys.empty()) {
    out += "hint: gated new-keys cannot regress until the baseline is "
           "refreshed (bench_compare --update-baseline); "
           "--require-baseline-keys makes them fail\n";
  }
  return out;
}

}  // namespace taxorec
