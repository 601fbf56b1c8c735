// bench_compare — diffs two BENCH_<name>.json files (or two directories of
// them) and gates wall-time regressions.
//
//   bench_compare baseline.json current.json
//   bench_compare --tolerance=0.5 bench/baselines/ ./
//   bench_compare --gate-keys=spmm.t1_seconds,eval.t1_seconds a.json b.json
//   bench_compare --update-baseline baseline.json current.json
//
// Both sides are flattened to dotted-path keys (common/json.h FlattenJson)
// and every numeric key present in both becomes a delta row. Keys whose
// final segment ends in "_seconds" gate by default (override the set with
// --gate-keys); the tool exits 1 when any gated key regresses past
// base * (1 + tolerance) or when a --gate-keys entry of the baseline is
// missing from the current file, 0 otherwise, 2 on usage or I/O errors.
// Gated keys that cannot compare (baseline <= 0, or a --gate-keys entry
// absent from both files) print as SKIPPED with a count instead of
// passing.
// Directory mode pairs files by name (BENCH_micro.baseline.json matches
// BENCH_micro.json) and fails if no pair is found. --update-baseline
// copies the current file(s) over the baseline path(s) instead of gating —
// the supported way to refresh bench/baselines/ after an accepted change.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/bench_diff.h"
#include "common/flags.h"
#include "common/status.h"

namespace taxorec::tools {
namespace {

namespace fs = std::filesystem;

struct FilePair {
  std::string baseline;
  std::string current;
  std::string label;
};

/// "BENCH_micro.baseline.json" and "BENCH_micro.json" both key as
/// "BENCH_micro", so a committed baseline matches the fresh run.
std::string PairKey(const fs::path& p) {
  std::string stem = p.stem().string();  // drops ".json"
  static constexpr std::string_view kBaseline = ".baseline";
  if (stem.size() >= kBaseline.size() &&
      stem.compare(stem.size() - kBaseline.size(), kBaseline.size(),
                   kBaseline) == 0) {
    stem.resize(stem.size() - kBaseline.size());
  }
  return stem;
}

Status CollectPairs(const std::string& baseline_arg,
                    const std::string& current_arg,
                    std::vector<FilePair>* pairs) {
  const bool base_dir = fs::is_directory(baseline_arg);
  const bool cur_dir = fs::is_directory(current_arg);
  if (base_dir != cur_dir) {
    return Status::InvalidArgument(
        "baseline and current must both be files or both be directories");
  }
  if (!base_dir) {
    pairs->push_back({baseline_arg, current_arg, fs::path(current_arg)
                                                     .filename()
                                                     .string()});
    return Status::OK();
  }
  const auto index = [](const std::string& dir) {
    std::vector<fs::path> out;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 &&
          entry.path().extension() == ".json") {
        out.push_back(entry.path());
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const std::vector<fs::path> base_files = index(baseline_arg);
  const std::vector<fs::path> cur_files = index(current_arg);
  for (const fs::path& b : base_files) {
    for (const fs::path& c : cur_files) {
      if (PairKey(b) == PairKey(c)) {
        pairs->push_back({b.string(), c.string(), PairKey(b)});
        break;
      }
    }
  }
  if (pairs->empty()) {
    return Status::NotFound("no matching BENCH_*.json pairs between " +
                            baseline_arg + " and " + current_arg);
  }
  return Status::OK();
}

int Main(int argc, const char* const* argv) {
  FlagSet flags;
  flags.DefineDouble("tolerance", 0.2,
                     "gated keys may grow by this relative fraction before "
                     "the comparison fails");
  flags.DefineString("gate-keys", "",
                     "comma-separated flattened keys to gate (default: "
                     "every key ending in _seconds); a listed key the "
                     "baseline has and current lacks fails");
  flags.DefineBool("update-baseline", false,
                   "copy current over baseline instead of gating");
  flags.DefineBool("require-baseline-keys", false,
                   "fail when a gated key exists only in current (stale "
                   "baseline); default merely reports new-key lines");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.message().c_str());
    return 2;
  }
  if (flags.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_compare [flags] <baseline.json|dir> "
                 "<current.json|dir>\n%s",
                 flags.Help().c_str());
    return 2;
  }

  BenchCompareOptions options;
  options.tolerance = flags.GetDouble("tolerance");
  options.require_baseline_keys = flags.GetBool("require-baseline-keys");
  if (options.tolerance < 0.0) {
    std::fprintf(stderr, "error: --tolerance must be >= 0\n");
    return 2;
  }
  const std::string gate_csv = flags.GetString("gate-keys");
  for (size_t pos = 0; pos < gate_csv.size();) {
    const size_t comma = gate_csv.find(',', pos);
    const size_t end = comma == std::string::npos ? gate_csv.size() : comma;
    if (end > pos) options.gate_keys.push_back(gate_csv.substr(pos, end - pos));
    pos = end + 1;
  }

  std::vector<FilePair> pairs;
  if (Status s = CollectPairs(flags.positional()[0], flags.positional()[1],
                              &pairs);
      !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.message().c_str());
    return 2;
  }

  if (flags.GetBool("update-baseline")) {
    for (const FilePair& p : pairs) {
      std::error_code ec;
      fs::copy_file(p.current, p.baseline,
                    fs::copy_options::overwrite_existing, ec);
      if (ec) {
        std::fprintf(stderr, "error: cannot update %s: %s\n",
                     p.baseline.c_str(), ec.message().c_str());
        return 2;
      }
      std::printf("baseline updated: %s <- %s\n", p.baseline.c_str(),
                  p.current.c_str());
    }
    return 0;
  }

  bool regression = false;
  size_t skipped = 0;
  for (const FilePair& p : pairs) {
    BenchCompareResult result;
    if (Status s = CompareBenchFiles(p.baseline, p.current, options, &result);
        !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.message().c_str());
      return 2;
    }
    std::printf("== %s: %s vs %s (tolerance %.0f%%)\n", p.label.c_str(),
                p.baseline.c_str(), p.current.c_str(),
                options.tolerance * 100.0);
    std::fputs(FormatBenchComparison(result).c_str(), stdout);
    regression = regression || result.regression;
    skipped += result.skipped_gates();
  }
  if (regression) {
    std::fprintf(stderr,
                 "bench_compare: FAIL (a gated key regressed beyond "
                 "tolerance or is missing; see the report above)\n");
    return 1;
  }
  if (skipped > 0) {
    std::printf("bench_compare: OK, but %zu gated key(s) SKIPPED\n", skipped);
  } else {
    std::printf("bench_compare: OK\n");
  }
  return 0;
}

}  // namespace
}  // namespace taxorec::tools

int main(int argc, char** argv) { return taxorec::tools::Main(argc, argv); }
