// Shared helpers for the experiment harness binaries (one per paper
// table/figure). Environment knobs:
//   TAXOREC_FAST=1    — third of the epochs, single seed (smoke runs)
//   TAXOREC_SEEDS=n   — number of training seeds per cell (default 2)
//   TAXOREC_SCALE=f   — dataset profile scale factor (see data/profiles.h)
//   TAXOREC_THREADS=n — worker threads (also settable via --threads=n)
#ifndef TAXOREC_BENCH_BENCH_COMMON_H_
#define TAXOREC_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "baselines/recommender.h"
#include "common/check.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/profiler.h"
#include "common/sampling_profiler.h"
#include "common/trace.h"
#include "data/profiles.h"
#include "data/split.h"
#include "eval/protocol.h"

namespace taxorec::bench {

inline bool FastMode() {
  const char* env = std::getenv("TAXOREC_FAST");
  return env != nullptr && env[0] != '0';
}

inline int NumSeeds() {
  if (FastMode()) return 1;
  const char* env = std::getenv("TAXOREC_SEEDS");
  if (env == nullptr) return 2;
  const int v = std::atoi(env);
  return v >= 1 ? v : 2;
}

/// Paper-default model configuration (§V-A4), scaled to the synthetic
/// profiles: D=64 total, D_t=12 for tag models, L=3, m=0.2, λ=0.1, K=3,
/// δ=0.5.
inline ModelConfig DefaultConfig() {
  ModelConfig cfg;
  cfg.dim = 64;
  cfg.tag_dim = 12;
  cfg.epochs = FastMode() ? 8 : 25;
  cfg.batches_per_epoch = 15;
  cfg.batch_size = 512;
  cfg.lr = 0.05;
  cfg.margin = 1.0;
  cfg.gcn_layers = 3;
  cfg.reg_lambda = 0.1;
  cfg.taxo_k = 3;
  cfg.taxo_delta = 0.5;
  cfg.taxo_rebuild_every = 5;
  return cfg;
}

/// Per-model tuned hyperparameters, standing in for the paper's per-model
/// grid search (§V-A4: "we also carefully tuned the hyperparameters of all
/// baselines ... to achieve their best performance"). Values were selected
/// on validation splits of the ciao/amazon-cd profiles.
inline ModelConfig ConfigFor(const std::string& model) {
  ModelConfig cfg = DefaultConfig();
  if (model == "CML" || model == "CMLF" || model == "SML" ||
      model == "TransCF" || model == "LRML" || model == "CML+Agg") {
    cfg.margin = 1.0;  // Euclidean metric models prefer a tighter margin.
  }
  if (model == "HyperML" || model == "Hyper+CML") {
    cfg.margin = 1.0;
    cfg.lr = 0.1;
  }
  if (model == "HGCF") {
    cfg.margin = 2.0;
  }
  if (model == "TaxoRec" || model == "Hyper+CML+Agg") {
    cfg.margin = 3.0;  // Table IV optimum on the sparse profiles
  }
  return cfg;
}

/// Small per-model hyperparameter grid for validation-based selection
/// (Table II). Metric models sweep the margin; inner-product models sweep
/// the learning rate; TaxoRec additionally sweeps the tag dimension.
inline std::vector<ModelConfig> GridFor(const std::string& model) {
  std::vector<ModelConfig> grid;
  const ModelConfig base = ConfigFor(model);
  if (model == "CML" || model == "CMLF" || model == "SML" ||
      model == "TransCF" || model == "LRML" || model == "CML+Agg") {
    for (double m : {0.5, 1.0, 2.0}) {
      grid.push_back(base);
      grid.back().margin = m;
    }
  } else if (model == "HyperML" || model == "Hyper+CML") {
    for (double m : {1.0, 2.0}) {
      grid.push_back(base);
      grid.back().margin = m;
    }
  } else if (model == "HGCF") {
    for (double m : {1.0, 2.0, 3.0}) {
      grid.push_back(base);
      grid.back().margin = m;
    }
  } else if (model == "TaxoRec" || model == "Hyper+CML+Agg") {
    // Identical grids so Table III isolates λ (the only difference between
    // the two variants). The margin range follows the Table IV sweep
    // (optimum at m = 3-4 on the sparse profiles).
    for (double m : {2.0, 3.0, 4.0}) {
      for (double as : {2.0, 8.0}) {
        grid.push_back(base);
        grid.back().margin = m;
        grid.back().alpha_scale = as;
      }
    }
  } else if (model == "NMF") {
    grid.push_back(base);
  } else {  // BPR-style inner-product models sweep the learning rate.
    for (double lr : {0.05, 0.1}) {
      grid.push_back(base);
      grid.back().lr = lr;
    }
  }
  return grid;
}

struct ProfileData {
  Dataset data;
  DataSplit split;
};

inline ProfileData LoadProfile(const std::string& name) {
  auto data = MakeProfileDataset(name);
  TAXOREC_CHECK_MSG(data.ok(), data.status().ToString().c_str());
  ProfileData out;
  out.data = std::move(*data);
  out.split = TemporalSplit(out.data);
  return out;
}

/// "x.xx±0.xx" percentage cell (values in [0,1] scaled to percent).
inline std::string PercentCell(double mean, double stddev) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%5.2f±%4.2f", 100.0 * mean,
                100.0 * stddev);
  return buf;
}

inline void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

/// Resolves the worker-thread count for a bench binary: --threads=N /
/// --threads N on the command line, else TAXOREC_THREADS, else hardware
/// concurrency. Installs it via SetNumThreads and returns it.
inline int InitThreads(int argc, const char* const* argv) {
  int n = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      n = std::atoi(arg.c_str() + 10);
    } else if (arg == "--threads" && i + 1 < argc) {
      n = std::atoi(argv[i + 1]);
    }
  }
  if (n < 1) {
    if (const char* env = std::getenv("TAXOREC_THREADS")) n = std::atoi(env);
  }
  if (n < 1) n = HardwareThreads();
  SetNumThreads(n);
  return n;
}

/// Best-of-`reps` wall time of fn(), after one untimed warm-up call.
template <typename Fn>
double TimeBestSeconds(int reps, Fn&& fn) {
  fn();  // warm-up
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    if (secs < best) best = secs;
  }
  return best;
}

/// Scans raw argv for `--name=value` / `--name value` (shared by the bench
/// binaries, which do not use FlagSet).
inline std::string ArgValue(int argc, const char* const* argv,
                            const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
    if (arg == "--" + name && i + 1 < argc) return argv[i + 1];
  }
  return "";
}

/// True when the bare switch `--name` appears in argv (valueless flags like
/// --quick; ArgValue would misread the following argument as its value).
inline bool HasArg(int argc, const char* const* argv,
                   const std::string& name) {
  const std::string flag = "--" + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// Applies the shared observability flags: --log-level (threshold) and
/// --trace-out (arms span collection). Span aggregation (profiling) is
/// armed unconditionally — every BENCH_<name>.json embeds the call-path
/// profile of its own run. WriteObservabilityFiles writes what the flags
/// name once the run is done.
inline void InitObservability(int argc, const char* const* argv) {
  const std::string level = ArgValue(argc, argv, "log-level");
  if (!level.empty()) {
    auto parsed = ParseLogLevel(level);
    TAXOREC_CHECK_MSG(parsed.ok(), parsed.status().ToString().c_str());
    SetLogLevel(*parsed);
  }
  if (!ArgValue(argc, argv, "trace-out").empty()) StartTracing();
  StartProfiling();
}

/// Stops tracing and profiling and writes the files the shared flags name:
/// --trace-out (Chrome trace), --profile-out (call-path profile as JSONL)
/// and --metrics-out (metrics-registry snapshot). Returns false, after
/// printing why, when a named file could not be written.
inline bool WriteObservabilityFiles(int argc, const char* const* argv) {
  bool ok = true;
  auto check = [&ok](const Status& s) {
    if (s.ok()) return;
    std::fprintf(stderr, "[bench] %s\n", s.ToString().c_str());
    ok = false;
  };
  const std::string trace_out = ArgValue(argc, argv, "trace-out");
  if (!trace_out.empty()) {
    StopTracing();
    check(WriteChromeTrace(trace_out));
  }
  StopProfiling();
  const std::string profile_out = ArgValue(argc, argv, "profile-out");
  if (!profile_out.empty()) check(WriteProfileJsonl(profile_out));
  const std::string metrics_out = ArgValue(argc, argv, "metrics-out");
  if (!metrics_out.empty()) {
    std::FILE* f = std::fopen(metrics_out.c_str(), "w");
    if (f == nullptr ||
        std::fprintf(f, "%s\n",
                     MetricsRegistry::Instance().SnapshotJson().c_str()) < 0) {
      check(Status::IOError("cannot write metrics file: " + metrics_out));
    }
    if (f != nullptr && std::fclose(f) != 0) {
      check(Status::IOError("short write: " + metrics_out));
    }
  }
  return ok;
}

/// Times a bench binary and records {threads, wall_seconds, peak RSS,
/// getrusage counters, the call-path profile, the metrics-registry
/// snapshot} to BENCH_<name>.json on destruction; also honors
/// --trace-out/--profile-out/--metrics-out/--flame-out/--log-level.
/// Declare one at the top of main():
///   taxorec::bench::BenchRun run("table2_overall", argc, argv);
class BenchRun {
 public:
  BenchRun(std::string name, int argc, const char* const* argv)
      : name_(std::move(name)),
        argc_(argc),
        argv_(argv),
        threads_(InitThreads(argc, argv)),
        flame_out_(ArgValue(argc, argv, "flame-out")),
        start_(std::chrono::steady_clock::now()) {
    InitObservability(argc, argv);
    if (!flame_out_.empty()) {
      if (Status s = StartSampling(SamplingOptions{}); s.ok()) {
        sampling_ = true;
      } else {
        std::fprintf(stderr, "[bench] sampling profiler unavailable: %s\n",
                     s.message().c_str());
      }
    }
  }

  BenchRun(const BenchRun&) = delete;
  BenchRun& operator=(const BenchRun&) = delete;

  ~BenchRun() {
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    WriteObservabilityFiles(argc_, argv_);
    if (sampling_) {
      StopSampling();
      if (Status s = WriteFoldedStacks(flame_out_); !s.ok()) {
        std::fprintf(stderr, "[bench] %s\n", s.ToString().c_str());
      }
    }
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f,
                 "{\"bench\": \"%s\", \"threads\": %d, "
                 "\"hardware_concurrency\": %d, \"wall_seconds\": %.3f, "
                 "\"peak_rss_bytes\": %llu,\n"
                 " \"rusage\": %s,\n \"profile\": %s,\n \"metrics\": %s}\n",
                 name_.c_str(), threads_, HardwareThreads(), secs,
                 static_cast<unsigned long long>(PeakRssBytes()),
                 RusageJsonObject(SelfRusage()).c_str(),
                 ProfileJsonArray().c_str(),
                 MetricsRegistry::Instance().SnapshotJson().c_str());
    std::fclose(f);
    std::printf("[bench] %s: threads=%d wall=%.2fs -> %s\n", name_.c_str(),
                threads_, secs, path.c_str());
  }

  int threads() const { return threads_; }

 private:
  std::string name_;
  int argc_;
  const char* const* argv_;
  int threads_;
  std::string flame_out_;
  bool sampling_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace taxorec::bench

#endif  // TAXOREC_BENCH_BENCH_COMMON_H_
