// telemetry_report — renders a RunTelemetry JSONL stream as a human-
// readable run summary: the manifest, an epoch table (loss / lr scale /
// wall time) with rollback and checkpoint markers inline, taxonomy rebuild
// stats, and the final evaluation metrics.
//
//   taxorec_cli train --data data.tsv --telemetry-out run.jsonl
//   telemetry_report run.jsonl
//
// With --profile it instead renders a `--profile-out` call-path profile
// (common/profiler.h JSONL) as an indented site tree:
//
//   taxorec_cli train --data data.tsv --profile-out profile.jsonl
//   telemetry_report --profile profile.jsonl
//
// With --stats it renders a serving stats stream (`taxorec_serve
// --stats-out`, see common/timeseries.h) as a per-window table — request
// rate, windowed latency percentiles, shed / degraded counts, the ladder
// position — with degrade/shed/drain event markers inline and the SLO
// summary at the end:
//
//   taxorec_serve --data data.tsv ... --stats-out stats.jsonl
//   telemetry_report --stats stats.jsonl
//
// With --flame it renders a `--flame-out` folded-stack file (common/
// sampling_profiler.h; flamegraph.pl input format "frame;frame;leaf N")
// as a top-N self-sample table — the leaf frame of every stack is where
// the CPU actually was:
//
//   taxorec_cli train --data data.tsv --flame-out flame.folded
//   telemetry_report --flame flame.folded
//
// Events are flat JSON objects (see core/telemetry.h), so the parser is
// ParseFlatJsonObject per line; unknown event kinds are listed but not
// interpreted, keeping the tool forward-compatible with new emitters.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"

namespace taxorec::tools {
namespace {

using Event = std::map<std::string, std::string>;

std::string Get(const Event& e, const std::string& key,
                const std::string& fallback = "-") {
  const auto it = e.find(key);
  return it == e.end() ? fallback : it->second;
}

double GetDouble(const Event& e, const std::string& key) {
  const auto it = e.find(key);
  return it == e.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

/// Renders a --profile-out JSONL file (one flat object per call-path site,
/// depth-first preorder) as a fixed-width tree: depth = number of '/'
/// separators in "path", label = the final path segment.
int ProfileMain(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path);
    return 1;
  }
  std::printf("%-36s %8s %12s %12s %10s %10s\n", "site", "calls", "incl_ms",
              "self_ms", "min_us", "max_us");
  std::string line;
  size_t lineno = 0;
  size_t sites = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    Event e;
    std::string error;
    if (!ParseFlatJsonObject(line, &e, &error)) {
      std::fprintf(stderr, "error: %s:%zu: %s\n", path, lineno,
                   error.c_str());
      return 1;
    }
    const std::string site_path = Get(e, "path", "");
    if (site_path.empty()) {
      std::fprintf(stderr, "error: %s:%zu: missing \"path\" key\n", path,
                   lineno);
      return 1;
    }
    size_t depth = 0;
    size_t last_sep = std::string::npos;
    for (size_t i = 0; i < site_path.size(); ++i) {
      if (site_path[i] == '/') {
        ++depth;
        last_sep = i;
      }
    }
    std::string label(depth * 2, ' ');
    label += last_sep == std::string::npos ? site_path
                                           : site_path.substr(last_sep + 1);
    std::printf("%-36s %8s %12.3f %12.3f %10s %10s\n", label.c_str(),
                Get(e, "calls").c_str(), GetDouble(e, "inclusive_us") / 1e3,
                GetDouble(e, "self_us") / 1e3, Get(e, "min_us").c_str(),
                Get(e, "max_us").c_str());
    ++sites;
  }
  if (sites == 0) {
    std::fprintf(stderr, "error: %s has no profile sites\n", path);
    return 1;
  }
  return 0;
}

/// Renders a folded-stack file as a self-sample table: samples aggregate
/// by their leaf frame (the function on CPU when SIGPROF fired), sorted by
/// count descending. The folded lines themselves are already the
/// flamegraph.pl input, so the table is a quick triage view and the file
/// passes through to flamegraph tooling untouched.
int FlameMain(const char* path, size_t top_n) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path);
    return 1;
  }
  std::map<std::string, uint64_t> self;  // leaf frame -> samples
  uint64_t total = 0;
  size_t stacks = 0;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    // "root;mid;leaf 42" — count after the last space, leaf after the
    // last ';' before it.
    const size_t space = line.rfind(' ');
    char* end = nullptr;
    const unsigned long long count =
        space == std::string::npos
            ? 0
            : std::strtoull(line.c_str() + space + 1, &end, 10);
    if (space == std::string::npos || end == nullptr || *end != '\0' ||
        count == 0) {
      std::fprintf(stderr, "error: %s:%zu: not a folded stack line\n", path,
                   lineno);
      return 1;
    }
    const std::string stack = line.substr(0, space);
    const size_t semi = stack.rfind(';');
    const std::string leaf =
        semi == std::string::npos ? stack : stack.substr(semi + 1);
    self[leaf] += count;
    total += count;
    ++stacks;
  }
  if (stacks == 0) {
    std::fprintf(stderr, "error: %s has no folded stacks\n", path);
    return 1;
  }
  std::vector<std::pair<std::string, uint64_t>> rows(self.begin(),
                                                     self.end());
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a,
                                                const auto& b) {
    return a.second > b.second;
  });
  if (rows.size() > top_n) rows.resize(top_n);
  std::printf("%zu distinct stack(s), %llu sample(s); top %zu by self "
              "samples:\n",
              stacks, static_cast<unsigned long long>(total), rows.size());
  std::printf("%10s %7s  %s\n", "samples", "self%", "frame");
  for (const auto& [frame, count] : rows) {
    std::printf("%10llu %6.1f%%  %s\n",
                static_cast<unsigned long long>(count),
                100.0 * static_cast<double>(count) /
                    static_cast<double>(total),
                frame.c_str());
  }
  return 0;
}

/// Renders a `taxorec_serve --stats-out` JSONL stream: one table row per
/// stats_window (rates and windowed percentiles already computed by
/// TimeseriesRecorder), serve event markers inline in stream order, and
/// the slo_summary lines as a closing section.
int StatsMain(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path);
    return 1;
  }
  std::string line;
  size_t lineno = 0;
  size_t windows = 0;
  size_t unknown = 0;
  bool header = false;
  std::vector<Event> slo_summaries;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    Event e;
    std::string error;
    if (!ParseFlatJsonObject(line, &e, &error)) {
      std::fprintf(stderr, "error: %s:%zu: %s\n", path, lineno,
                   error.c_str());
      return 1;
    }
    const std::string kind = Get(e, "event");
    if (kind == "stats_window") {
      if (!header) {
        std::printf("%-4s %8s %7s %9s %9s %9s %9s %6s %9s %6s\n", "win",
                    "t1_s", "req", "req/s", "p50_ms", "p95_ms", "p99_ms",
                    "shed", "degraded", "steps");
        header = true;
      }
      std::printf(
          "%-4s %8.2f %7s %9.0f %9.3f %9.3f %9.3f %6s %9s %6.0f\n",
          Get(e, "window").c_str(), GetDouble(e, "t1"),
          Get(e, "taxorec.serve.requests", "0").c_str(),
          GetDouble(e, "taxorec.serve.requests.rate"),
          GetDouble(e, "taxorec.serve.request_seconds.p50") * 1e3,
          GetDouble(e, "taxorec.serve.request_seconds.p95") * 1e3,
          GetDouble(e, "taxorec.serve.request_seconds.p99") * 1e3,
          Get(e, "taxorec.serve.shed", "0").c_str(),
          Get(e, "taxorec.serve.degraded", "0").c_str(),
          GetDouble(e, "taxorec.serve.degrade_steps"));
      ++windows;
    } else if (kind == "serve_degrade") {
      std::printf("  -- window %s: precision ladder %s -> %s step(s)\n",
                  Get(e, "window").c_str(), Get(e, "prev_steps").c_str(),
                  Get(e, "steps").c_str());
    } else if (kind == "serve_shed") {
      std::printf("  -- window %s: shed %s request(s)\n",
                  Get(e, "window").c_str(), Get(e, "shed").c_str());
    } else if (kind == "serve_drain") {
      std::printf("  -- graceful drain at t=%.3fs\n", GetDouble(e, "t"));
    } else if (kind == "slo_summary") {
      slo_summaries.push_back(std::move(e));
    } else {
      ++unknown;
    }
  }
  if (windows == 0) {
    std::fprintf(stderr, "error: %s has no stats_window events\n", path);
    return 1;
  }
  if (!slo_summaries.empty()) {
    std::printf("\n%-16s %8s %8s %11s %8s %8s\n", "slo", "target", "windows",
                "violations", "burn", "budget");
    for (const Event& e : slo_summaries) {
      const double burn = GetDouble(e, "burn_rate");
      std::printf("%-16s %8.3f %8s %11s %8.2f %8.2f  [%s]\n",
                  Get(e, "slo").c_str(), GetDouble(e, "target"),
                  Get(e, "windows").c_str(), Get(e, "violations").c_str(),
                  burn, GetDouble(e, "budget_remaining"),
                  burn < 1.0 ? "ok" : "burning");
    }
  }
  if (unknown > 0) {
    std::printf("(%zu event(s) of unknown kind skipped)\n", unknown);
  }
  return 0;
}

int Main(int argc, const char* const* argv) {
  if (argc == 3 && std::string(argv[1]) == "--profile") {
    return ProfileMain(argv[2]);
  }
  if (argc == 3 && std::string(argv[1]) == "--stats") {
    return StatsMain(argv[2]);
  }
  if (argc == 3 && std::string(argv[1]) == "--flame") {
    return FlameMain(argv[2], /*top_n=*/20);
  }
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: telemetry_report <run.jsonl>\n"
                 "       telemetry_report --profile <profile.jsonl>\n"
                 "       telemetry_report --stats <stats.jsonl>\n"
                 "       telemetry_report --flame <flame.folded>\n");
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", argv[1]);
    return 1;
  }

  std::vector<Event> events;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    Event e;
    std::string error;
    if (!ParseFlatJsonObject(line, &e, &error)) {
      std::fprintf(stderr, "error: %s:%zu: %s\n", argv[1], lineno,
                   error.c_str());
      return 1;
    }
    events.push_back(std::move(e));
  }
  if (events.empty()) {
    std::fprintf(stderr, "error: %s has no events\n", argv[1]);
    return 1;
  }

  for (const Event& e : events) {
    if (Get(e, "event") != "run_start") continue;
    std::printf("run: model=%s dataset=%s seed=%s threads=%s epochs=%s\n",
                Get(e, "model").c_str(), Get(e, "dataset").c_str(),
                Get(e, "seed").c_str(), Get(e, "threads").c_str(),
                Get(e, "epochs").c_str());
    std::printf("     git=%s flags=[%s]\n", Get(e, "git_describe").c_str(),
                Get(e, "flags", "").c_str());
  }

  std::printf("\n%-7s %-14s %-10s %-10s %s\n", "epoch", "loss", "lr_scale",
              "wall_s", "notes");
  size_t unknown = 0;
  for (const Event& e : events) {
    const std::string kind = Get(e, "event");
    if (kind == "epoch") {
      std::printf("%-7s %-14.6g %-10s %-10.3f\n", Get(e, "epoch").c_str(),
                  GetDouble(e, "loss"), Get(e, "lr_scale").c_str(),
                  GetDouble(e, "wall_seconds"));
    } else if (kind == "health_fail") {
      std::printf("%-7s %-14s %-10s %-10s health FAIL: %s row %s (%s)\n",
                  Get(e, "epoch").c_str(), "-", "-", "-",
                  Get(e, "first_bad_matrix").c_str(),
                  Get(e, "first_bad_row").c_str(),
                  Get(e, "value_class").c_str());
    } else if (kind == "rollback") {
      std::printf("%-7s %-14s %-10s %-10s ROLLBACK -> lr_scale %s\n",
                  Get(e, "epoch").c_str(), "-", "-", "-",
                  Get(e, "lr_scale").c_str());
    } else if (kind == "checkpoint") {
      std::printf("%-7s %-14s %-10s %-10s checkpoint %s (%s bytes)\n",
                  Get(e, "epoch").c_str(), "-", "-", "-",
                  Get(e, "path").c_str(), Get(e, "bytes").c_str());
    } else if (kind == "resume") {
      std::printf("%-7s %-14s %-10s %-10s resumed from %s\n",
                  Get(e, "epoch").c_str(), "-", Get(e, "lr_scale").c_str(),
                  "-", Get(e, "path").c_str());
    } else if (kind == "taxonomy_rebuild") {
      std::printf("%-7s %-14s %-10s %-10.3f taxonomy: %s nodes, depth %s\n",
                  Get(e, "epoch").c_str(), "-", "-",
                  GetDouble(e, "wall_seconds"), Get(e, "num_nodes").c_str(),
                  Get(e, "max_depth").c_str());
    } else if (kind == "eval") {
      std::printf("\neval (%s users, %.3fs):", Get(e, "num_eval_users").c_str(),
                  GetDouble(e, "wall_seconds"));
      for (const auto& [key, value] : e) {
        if (key.rfind("recall@", 0) == 0 || key.rfind("ndcg@", 0) == 0) {
          std::printf(" %s=%s", key.c_str(), value.c_str());
        }
      }
      std::printf("\n");
    } else if (kind == "run_end") {
      std::printf("\nrun end: ok=%s epochs_run=%s rollbacks=%s "
                  "final_loss=%s wall=%.3fs\n",
                  Get(e, "ok").c_str(), Get(e, "epochs_run").c_str(),
                  Get(e, "rollbacks").c_str(), Get(e, "final_loss").c_str(),
                  GetDouble(e, "wall_seconds"));
      if (Get(e, "ok") != "true") {
        std::printf("  status: %s\n", Get(e, "status").c_str());
      }
    } else if (kind == "serve_degrade") {
      std::printf("%-7s %-14s %-10s %-10s serve: precision ladder %s -> %s "
                  "step(s)\n",
                  "-", "-", "-", "-", Get(e, "prev_steps").c_str(),
                  Get(e, "steps").c_str());
    } else if (kind == "serve_shed") {
      std::printf("%-7s %-14s %-10s %-10s serve: shed %s request(s)\n", "-",
                  "-", "-", "-", Get(e, "shed").c_str());
    } else if (kind == "serve_drain") {
      std::printf("%-7s %-14s %-10s %-10s serve: graceful drain\n", "-", "-",
                  "-", "-");
    } else if (kind != "run_start") {
      ++unknown;
    }
  }
  if (unknown > 0) {
    std::printf("(%zu event(s) of unknown kind skipped)\n", unknown);
  }
  return 0;
}

}  // namespace
}  // namespace taxorec::tools

int main(int argc, char** argv) { return taxorec::tools::Main(argc, argv); }
