// taxorec_serve — batch top-K serving harness.
//
// Freezes a trained model (a view of its scoring rows), replays a
// request stream against the batched server, and reports throughput and
// latency percentiles from the metrics registry.
//
//   # Train a fresh model on the fly and replay 5000 random requests:
//   taxorec_serve --data data.tsv --model TaxoRec --random-requests 5000
//
//   # Restore a TaxoRec checkpoint and replay a recorded JSONL stream:
//   taxorec_serve --data data.tsv --checkpoint model.ckpt
//       --requests reqs.jsonl --cache 4096 --out results.jsonl
//
//   # Serve from the vectorized float32 tier (or int8 coarse + float32
//   # re-rank) instead of bit-exact double — see DESIGN.md §11:
//   taxorec_serve --data data.tsv --random-requests 5000 --precision float32
//
//   # Sub-linear IVF retrieval (DESIGN.md §15): probe the 8 nearest
//   # Poincaré k-means cells per request instead of sweeping the full
//   # catalogue (exact stays the default and the oracle):
//   taxorec_serve --data data.tsv --random-requests 5000
//       --precision float32 --retrieval ivf --nprobe 8
//
//   # Overload-robust replay (DESIGN.md §12): bounded admission queue,
//   # 50 ms deadline budgets, adaptive precision degradation; finishes
//   # with a graceful drain:
//   taxorec_serve --data data.tsv --random-requests 5000
//       --max-queue 256 --deadline-ms 50 --degrade
//
//   # Observability (DESIGN.md §13): stream windowed serve metrics with
//   # per-window SLO verdicts, log every request's lifecycle record, and
//   # keep a flight-recorder ring that auto-dumps on drain / serve fault /
//   # health failure. Render the stats stream with telemetry_report
//   # --stats:
//   taxorec_serve --data data.tsv --random-requests 5000
//       --max-queue 256 --deadline-ms 50 --degrade
//       --stats-out stats.jsonl --stats-interval-ms 250
//       --slo-p99-ms 20 --slo-shed-rate 0.05
//       --request-log requests.log.jsonl --flight-dump flight.jsonl
//
// The request file is JSONL, one object per line: {"user": 7, "k": 10}
// ("k" optional; defaults to --k). Malformed lines are skipped with a
// WARN (taxorec.serve.bad_requests counts them); the run only fails when
// every line is bad. Results (--out) are JSONL lines of the form
// {"user":7,"k":10,"items":[...],"scores":[...]}, with an extra
// "status" field on requests that were shed or finished late.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/checkpoint.h"
#include "common/flags.h"
#include "common/introspection.h"
#include "common/json.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/sampling_profiler.h"
#include "common/slo.h"
#include "common/timeseries.h"
#include "core/taxorec_model.h"
#include "data/io.h"
#include "data/split.h"
#include "math/rng.h"
#include "serve/request_io.h"
#include "serve/request_log.h"
#include "serve/server.h"

namespace taxorec::serve_tool {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

std::vector<ServeRequest> RandomRequests(size_t n, size_t default_k,
                                         size_t num_users, uint64_t seed) {
  Rng rng(seed);
  std::vector<ServeRequest> requests(n);
  for (auto& req : requests) {
    req.user = static_cast<uint32_t>(rng.Uniform(num_users));
    req.k = default_k;
  }
  return requests;
}

Status WriteResults(const std::string& path,
                    const std::vector<ServeResult>& results) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot write " + path);
  JsonWriter w;
  for (const ServeResult& r : results) {
    w.BeginObject();
    w.Key("user").Uint(r.request.user);
    w.Key("k").Uint(r.request.k);
    if (r.status != ServeStatus::kOk) {
      w.Key("status").String(ServeStatusName(r.status));
    }
    w.Key("items").BeginArray();
    for (const TopKEntry& e : r.items) w.Uint(e.item);
    w.EndArray();
    w.Key("scores").BeginArray();
    for (const TopKEntry& e : r.items) w.Double(e.score);
    w.EndArray();
    w.EndObject();
    out << w.TakeString() << "\n";
  }
  return Status::OK();
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Instance().GetCounter(name)->value();
}

// Streams windowed serve metrics (and per-window SLO verdicts) to a stats
// JSONL file while the replay runs. Windows close on the wall clock at the
// configured interval; discrete serve events (ladder steps, sheds, drain)
// are interleaved as marker lines telemetry_report --stats renders on the
// timeline. See common/timeseries.h for window semantics.
class StatsDriver {
 public:
  Status Open(const std::string& path, double interval_seconds,
              std::vector<SloObjective> objectives) {
    out_.open(path, std::ios::trunc);
    if (!out_) return Status::IOError("cannot write " + path);
    path_ = path;
    interval_ = interval_seconds;
    TimeseriesOptions opts;
    opts.prefix = "taxorec.serve.";
    opts.interval_seconds = interval_seconds;
    recorder_ = std::make_unique<TimeseriesRecorder>(opts, 0.0);
    if (!objectives.empty()) {
      slo_ = std::make_unique<SloTracker>(std::move(objectives));
    }
    t0_ = std::chrono::steady_clock::now();
    return Status::OK();
  }

  bool active() const { return recorder_ != nullptr; }

  /// Closes a window when the configured interval has elapsed (always when
  /// `force`): one stats_window line, event markers, SLO classification.
  void MaybeTick(bool force) {
    if (!active()) return;
    const double now = NowSeconds();
    if (now <= last_tick_) return;
    if (!force && now - last_tick_ < interval_) return;
    last_tick_ = now;
    const TimeseriesWindow w = recorder_->Tick(now);
    out_ << StatsWindowJsonl(w) << "\n";
    EmitEvents(w);
    if (slo_ != nullptr) slo_->Evaluate(w);
  }

  /// Marks the graceful drain in the event stream.
  void MarkDrain() {
    if (!active()) return;
    JsonWriter jw;
    jw.BeginObject();
    jw.Key("event").String("serve_drain");
    jw.Key("t").Double(NowSeconds());
    jw.EndObject();
    out_ << jw.TakeString() << "\n";
  }

  /// Final forced window, slo_summary lines, and the stdout recap.
  void Finish() {
    if (!active()) return;
    MaybeTick(/*force=*/true);
    if (slo_ != nullptr) {
      for (const SloTracker::Summary& s : slo_->Summaries()) {
        out_ << SloTracker::SummaryJsonl(s) << "\n";
        std::printf(
            "slo %-12s target %.3f  windows %llu  violations %llu  "
            "burn %.2f  budget %+.2f  [%s]\n",
            s.name.c_str(), s.target,
            static_cast<unsigned long long>(s.windows),
            static_cast<unsigned long long>(s.violations), s.burn_rate,
            s.budget_remaining, s.burn_rate < 1.0 ? "ok" : "burning");
      }
    }
    std::printf("stats: wrote %llu window(s) to %s\n",
                static_cast<unsigned long long>(recorder_->windows()),
                path_.c_str());
  }

 private:
  double NowSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

  void EmitEvents(const TimeseriesWindow& w) {
    const auto steps_it = w.gauges.find("taxorec.serve.degrade_steps");
    const double steps = steps_it != w.gauges.end() ? steps_it->second : 0.0;
    if (steps != prev_steps_) {
      JsonWriter jw;
      jw.BeginObject();
      jw.Key("event").String("serve_degrade");
      jw.Key("t").Double(w.t1);
      jw.Key("window").Uint(w.index);
      jw.Key("steps").Double(steps);
      jw.Key("prev_steps").Double(prev_steps_);
      jw.EndObject();
      out_ << jw.TakeString() << "\n";
      prev_steps_ = steps;
    }
    const auto shed_it = w.counters.find("taxorec.serve.shed");
    if (shed_it != w.counters.end() && shed_it->second > 0) {
      JsonWriter jw;
      jw.BeginObject();
      jw.Key("event").String("serve_shed");
      jw.Key("t").Double(w.t1);
      jw.Key("window").Uint(w.index);
      jw.Key("shed").Uint(shed_it->second);
      jw.EndObject();
      out_ << jw.TakeString() << "\n";
    }
  }

  std::ofstream out_;
  std::string path_;
  double interval_ = 1.0;
  double last_tick_ = 0.0;
  double prev_steps_ = 0.0;
  std::unique_ptr<TimeseriesRecorder> recorder_;
  std::unique_ptr<SloTracker> slo_;
  std::chrono::steady_clock::time_point t0_{};
};

int Main(int argc, const char* const* argv) {
  FlagSet flags;
  flags.DefineString("data", "", "dataset TSV path");
  flags.DefineString("model", "TaxoRec",
                     "model to train before serving (ignored with "
                     "--checkpoint)");
  flags.DefineString("checkpoint", "",
                     "TaxoRec checkpoint to restore instead of training");
  flags.DefineString("requests", "",
                     "JSONL request stream: {\"user\": 7, \"k\": 10} per "
                     "line");
  flags.DefineInt("random-requests", 0,
                  "generate this many uniform-random requests instead of "
                  "--requests");
  flags.DefineInt("k", 10, "default list length");
  flags.DefineInt("batch", 64, "requests per ServeBatch call");
  flags.DefineInt("cache", 0, "LRU result-cache capacity (0 = off)");
  flags.DefineString("precision", "double",
                     "scoring tier: double (bit-exact), float32 (SIMD), or "
                     "int8 (coarse rank + float32 re-rank)");
  flags.DefineString("retrieval", "exact",
                     "candidate generation: exact (full catalogue sweep, "
                     "the oracle) or ivf (probe --nprobe Poincare k-means "
                     "cells; needs --precision float32 or int8) — "
                     "DESIGN.md §15");
  flags.DefineInt("nprobe", 8, "IVF cells probed per request");
  flags.DefineInt("ivf-cells", 0,
                  "IVF cell count (0 = sqrt(num_items) heuristic)");
  flags.DefineDouble("deadline-ms", 0.0,
                     "per-request deadline budget in ms, measured from "
                     "submit; expired requests are shed (0 = no deadline)");
  flags.DefineInt("max-queue", 0,
                  "bounded admission queue capacity; overflow is shed "
                  "(0 = direct batch replay without a queue)");
  flags.DefineBool("degrade", false,
                   "step the scoring tier down (double->float32->int8) "
                   "under queue pressure, back up when it clears");
  flags.DefineInt("dim", 64, "embedding dimension (training path)");
  flags.DefineInt("tag-dim", 12, "tag-channel dimension (training path)");
  flags.DefineInt("epochs", 25, "training epochs (training path)");
  flags.DefineInt("seed", 13, "training / request-stream seed");
  flags.DefineString("out", "", "write served lists as JSONL here");
  flags.DefineString("metrics-out", "",
                     "write the final metrics-registry snapshot JSON here");
  flags.DefineString("flame-out", "",
                     "run the sampling CPU profiler during the replay and "
                     "write folded stacks here (flamegraph.pl input)");
  flags.DefineString("stats-out", "",
                     "stream windowed serve metrics as stats JSONL here "
                     "(render with telemetry_report --stats)");
  flags.DefineInt("stats-interval-ms", 1000,
                  "stats window length in milliseconds");
  flags.DefineString("request-log", "",
                     "write one lifecycle JSONL line per served request "
                     "here (arms request observability)");
  flags.DefineString("flight-dump", "",
                     "flight-recorder auto-dump path, written on drain, "
                     "serve fault injection, or health failure (arms "
                     "request observability)");
  flags.DefineInt("flight-capacity", 256,
                  "flight-recorder ring capacity in records");
  flags.DefineDouble("slo-p99-ms", 0.0,
                     "latency SLO: windowed p99 request latency must stay "
                     "<= this many ms (0 = off; needs --stats-out)");
  flags.DefineDouble("slo-shed-rate", -1.0,
                     "availability SLO: per-window shed fraction must stay "
                     "<= this (negative = off; needs --stats-out)");
  flags.DefineDouble("slo-target", 0.99,
                     "required fraction of compliant windows per SLO");
  DefineThreadsFlag(&flags);
  DefineLogLevelFlag(&flags);
  if (Status s = flags.Parse(argc, argv, 1); !s.ok()) return Fail(s);
  // Sizes are cast to size_t below, so a negative value would wrap.
  if (flags.GetInt("k") < 1) {
    return Fail(Status::InvalidArgument("--k must be >= 1"));
  }
  if (flags.GetInt("batch") < 1) {
    return Fail(Status::InvalidArgument("--batch must be >= 1"));
  }
  if (flags.GetInt("cache") < 0) {
    return Fail(Status::InvalidArgument("--cache must be >= 0"));
  }
  if (flags.GetInt("max-queue") < 0) {
    return Fail(Status::InvalidArgument("--max-queue must be >= 0"));
  }
  // TaxoRec (trained or restored) and AMF carve the tag channel out of
  // --dim; the other models ignore --tag-dim.
  const bool taxorec = !flags.GetString("checkpoint").empty() ||
                       flags.GetString("model") == "TaxoRec";
  const size_t min_item_dim =
      taxorec ? kTaxoRecMinItemDim : flags.GetString("model") == "AMF" ? 1 : 0;
  if (Status s = CheckModelSizeFlags(flags, min_item_dim); !s.ok()) {
    return Fail(s);
  }
  if (Status s = ApplyThreadsFlag(flags); !s.ok()) return Fail(s);
  if (Status s = ApplyLogLevelFlag(flags); !s.ok()) return Fail(s);

  if (flags.GetString("data").empty()) {
    return Fail(Status::InvalidArgument("--data is required"));
  }
  auto data = LoadDataset(flags.GetString("data"));
  if (!data.ok()) return Fail(data.status());
  const DataSplit split = TemporalSplit(*data);

  ModelConfig cfg;
  cfg.dim = static_cast<size_t>(flags.GetInt("dim"));
  cfg.tag_dim = static_cast<size_t>(flags.GetInt("tag-dim"));
  cfg.epochs = static_cast<int>(flags.GetInt("epochs"));
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed"));

  std::unique_ptr<Recommender> model;
  if (!flags.GetString("checkpoint").empty()) {
    auto taxo = std::make_unique<TaxoRecModel>(cfg, TaxoRecOptions{});
    auto ckpt = Checkpoint::ReadFile(flags.GetString("checkpoint"));
    if (!ckpt.ok()) return Fail(ckpt.status());
    if (Status s = taxo->RestoreCheckpoint(*ckpt, split); !s.ok()) {
      return Fail(s);
    }
    model = std::move(taxo);
    std::printf("restored TaxoRec from %s\n",
                flags.GetString("checkpoint").c_str());
  } else {
    model = MakeModel(flags.GetString("model"), cfg);
    if (model == nullptr) {
      return Fail(Status::InvalidArgument("unknown model: " +
                                          flags.GetString("model")));
    }
    std::printf("training %s on %s ...\n", flags.GetString("model").c_str(),
                data->name.c_str());
    Rng rng(cfg.seed);
    model->Fit(split, &rng);
  }

  std::vector<ServeRequest> requests;
  RequestLogStats log_stats;
  if (!flags.GetString("requests").empty()) {
    auto loaded = LoadRequestsJsonl(flags.GetString("requests"),
                                    static_cast<size_t>(flags.GetInt("k")),
                                    split.num_users, &log_stats);
    if (!loaded.ok()) return Fail(loaded.status());
    requests = std::move(*loaded);
    if (log_stats.bad_lines > 0) {
      std::printf("skipped %zu malformed request line(s) of %zu\n",
                  log_stats.bad_lines, log_stats.total_lines);
    }
  } else if (flags.GetInt("random-requests") > 0) {
    requests = RandomRequests(
        static_cast<size_t>(flags.GetInt("random-requests")),
        static_cast<size_t>(flags.GetInt("k")), split.num_users,
        cfg.seed ^ 0x5e5e5e5eULL);
  } else {
    return Fail(Status::InvalidArgument(
        "one of --requests or --random-requests is required"));
  }

  const double deadline_ms = flags.GetDouble("deadline-ms");
  if (deadline_ms < 0.0) {
    return Fail(Status::InvalidArgument("--deadline-ms must be >= 0"));
  }
  ServeOptions serve_opts;
  serve_opts.cache_capacity = static_cast<size_t>(flags.GetInt("cache"));
  if (!ParsePrecisionTier(flags.GetString("precision"),
                          &serve_opts.precision)) {
    return Fail(Status::InvalidArgument(
        "--precision must be double, float32 or int8 (got \"" +
        flags.GetString("precision") + "\")"));
  }
  if (!ParseRetrievalMode(flags.GetString("retrieval"),
                          &serve_opts.retrieval)) {
    return Fail(Status::InvalidArgument(
        "--retrieval must be exact or ivf (got \"" +
        flags.GetString("retrieval") + "\")"));
  }
  if (serve_opts.retrieval == RetrievalMode::kIvf) {
    if (serve_opts.precision == PrecisionTier::kDouble) {
      return Fail(Status::InvalidArgument(
          "--retrieval ivf needs --precision float32 or int8 (the double "
          "tier always serves exact)"));
    }
    if (flags.GetInt("nprobe") <= 0) {
      return Fail(Status::InvalidArgument("--nprobe must be > 0"));
    }
    if (flags.GetInt("ivf-cells") < 0) {
      return Fail(Status::InvalidArgument("--ivf-cells must be >= 0"));
    }
    serve_opts.ivf.nprobe = static_cast<size_t>(flags.GetInt("nprobe"));
    serve_opts.ivf.num_cells =
        static_cast<size_t>(flags.GetInt("ivf-cells"));
  }
  serve_opts.admission.max_queue =
      static_cast<size_t>(flags.GetInt("max-queue"));
  serve_opts.admission.degrade = flags.GetBool("degrade");
  if (serve_opts.admission.degrade && deadline_ms > 0.0) {
    // Tie the ladder to the latency target: degrade when the estimated
    // queue wait eats half the deadline budget, recover below 5% of it.
    serve_opts.admission.pressure_step_down = 0.5 * deadline_ms / 1000.0;
    serve_opts.admission.pressure_step_up = 0.05 * deadline_ms / 1000.0;
  }
  const bool queued_mode = serve_opts.admission.max_queue > 0;

  // Request observability (DESIGN.md §13): armed before any traffic so the
  // first request already carries an id and lifecycle record.
  const bool obs_requested = !flags.GetString("request-log").empty() ||
                             !flags.GetString("flight-dump").empty();
  if (obs_requested) {
    if (flags.GetInt("flight-capacity") <= 0) {
      return Fail(Status::InvalidArgument("--flight-capacity must be > 0"));
    }
    RequestObservabilityOptions obs_opts;
    obs_opts.request_log_path = flags.GetString("request-log");
    obs_opts.flight_dump_path = flags.GetString("flight-dump");
    obs_opts.flight_capacity =
        static_cast<size_t>(flags.GetInt("flight-capacity"));
    if (Status s = RequestObservability::Instance().Arm(obs_opts); !s.ok()) {
      return Fail(s);
    }
  }

  StatsDriver stats;
  const double slo_p99_ms = flags.GetDouble("slo-p99-ms");
  const double slo_shed_rate = flags.GetDouble("slo-shed-rate");
  const double slo_target = flags.GetDouble("slo-target");
  if (flags.GetString("stats-out").empty() &&
      (slo_p99_ms > 0.0 || slo_shed_rate >= 0.0)) {
    return Fail(Status::InvalidArgument(
        "--slo-* needs --stats-out (objectives are evaluated per stats "
        "window)"));
  }
  if (!flags.GetString("stats-out").empty()) {
    if (flags.GetInt("stats-interval-ms") <= 0) {
      return Fail(
          Status::InvalidArgument("--stats-interval-ms must be > 0"));
    }
    if (slo_target <= 0.0 || slo_target >= 1.0) {
      return Fail(Status::InvalidArgument("--slo-target must be in (0, 1)"));
    }
    std::vector<SloObjective> objectives;
    if (slo_p99_ms > 0.0) {
      objectives.push_back(LatencySloP99("p99_latency",
                                         "taxorec.serve.request_seconds",
                                         slo_p99_ms / 1e3, slo_target));
    }
    if (slo_shed_rate >= 0.0) {
      objectives.push_back(ShedRateSlo(slo_shed_rate, slo_target));
    }
    if (Status s = stats.Open(
            flags.GetString("stats-out"),
            static_cast<double>(flags.GetInt("stats-interval-ms")) / 1e3,
            std::move(objectives));
        !s.ok()) {
      return Fail(s);
    }
  }

  // SIGUSR1 dumps the live metrics snapshot (and the flight-recorder ring
  // when armed) mid-replay without stopping the run. The handler only
  // raises a flag; this poll runs between batches, off the scoring path.
  if (Status s = InstallSigusr1Handler(); !s.ok()) return Fail(s);
  auto poll_introspection = [&]() {
    if (!ConsumeIntrospectionRequest()) return;
    const std::string metrics_path = flags.GetString("metrics-out").empty()
                                         ? "taxorec_metrics_dump.json"
                                         : flags.GetString("metrics-out");
    std::ofstream out(metrics_path, std::ios::trunc);
    if (out) out << MetricsRegistry::Instance().SnapshotJson() << "\n";
    std::printf("SIGUSR1: metrics snapshot written to %s\n",
                metrics_path.c_str());
    if (obs_requested && !flags.GetString("flight-dump").empty()) {
      if (Status s = RequestObservability::Instance().DumpTo(
              flags.GetString("flight-dump"), "sigusr1");
          s.ok()) {
        std::printf("SIGUSR1: flight recorder dumped to %s\n",
                    flags.GetString("flight-dump").c_str());
      }
    }
  };

  const std::string flame_path = flags.GetString("flame-out");
  bool sampling = false;
  if (!flame_path.empty()) {
    if (Status s = StartSampling(SamplingOptions{}); s.ok()) {
      sampling = true;
    } else {
      TAXOREC_LOG(WARN) << "sampling profiler unavailable, --flame-out will "
                           "be empty: "
                        << s.message();
    }
  }

  BatchServer server(*model, split, serve_opts);
  std::printf(
      "serving %zu requests (batch %lld, cache %lld, kernel %s, "
      "precision %s, retrieval %s, %s %.1f MiB%s%s)\n",
      requests.size(), static_cast<long long>(flags.GetInt("batch")),
      static_cast<long long>(flags.GetInt("cache")),
      server.model().native() ? "native" : "virtual",
      PrecisionTierName(server.model().tier()),
      RetrievalModeName(server.options().retrieval),
      server.model().tier() == PrecisionTier::kDouble
          ? "model rows read in place"
          : "compact snapshot",
      static_cast<double>(server.model().snapshot_bytes()) / (1024.0 * 1024.0),
      queued_mode ? ", bounded queue" : "",
      serve_opts.admission.degrade ? ", degrade" : "");

  const size_t batch = static_cast<size_t>(flags.GetInt("batch"));
  std::vector<ServeResult> results;
  results.reserve(requests.size());
  const auto t0 = std::chrono::steady_clock::now();
  if (queued_mode) {
    // Bounded-admission replay: submit each chunk through the front door
    // (sheds surface as explicit statuses), serve what was admitted, and
    // finish with a graceful drain.
    for (size_t b0 = 0; b0 < requests.size(); b0 += batch) {
      const size_t b1 = std::min(b0 + batch, requests.size());
      const auto now = ServeClock::now();
      for (size_t i = b0; i < b1; ++i) {
        ServeRequest req = requests[i];
        if (deadline_ms > 0.0) req.deadline = DeadlineAfterMs(deadline_ms, now);
        const AdmitResult verdict = server.Submit(req);
        if (verdict != AdmitResult::kAdmitted) {
          ServeResult shed;
          shed.request = req;
          shed.status = verdict == AdmitResult::kShedCost
                            ? ServeStatus::kShedCost
                            : verdict == AdmitResult::kShedDraining
                                  ? ServeStatus::kShedDraining
                                  : ServeStatus::kShedQueueFull;
          results.push_back(std::move(shed));
        }
      }
      auto served = server.ServeQueued(batch);
      for (auto& r : served) results.push_back(std::move(r));
      stats.MaybeTick(/*force=*/false);
      poll_introspection();
    }
    auto drained = server.Drain();
    for (auto& r : drained) results.push_back(std::move(r));
    stats.MarkDrain();
  } else {
    for (size_t b0 = 0; b0 < requests.size(); b0 += batch) {
      const size_t b1 = std::min(b0 + batch, requests.size());
      if (deadline_ms > 0.0) {
        const auto now = ServeClock::now();
        for (size_t i = b0; i < b1; ++i) {
          requests[i].deadline = DeadlineAfterMs(deadline_ms, now);
        }
      }
      auto served = server.ServeBatchEx(std::span<const ServeRequest>(
          requests.data() + b0, b1 - b0));
      for (auto& r : served) results.push_back(std::move(r));
      stats.MaybeTick(/*force=*/false);
      poll_introspection();
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Latency percentiles come from the serving layer's own histogram, the
  // same numbers a long-running process would export to its dashboard.
  const Histogram* lat = MetricsRegistry::Instance().GetHistogram(
      "taxorec.serve.request_seconds",
      {1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 5.0});
  const uint64_t hits = server.cache() != nullptr ? server.cache()->hits() : 0;
  std::printf("served %zu requests in %.3fs  (%.0f req/s)\n", requests.size(),
              wall, static_cast<double>(requests.size()) / wall);
  std::printf("latency p50 %.3fms  p95 %.3fms  p99 %.3fms\n",
              lat->Percentile(0.50) * 1e3, lat->Percentile(0.95) * 1e3,
              lat->Percentile(0.99) * 1e3);
  if (server.cache() != nullptr) {
    std::printf("cache: %llu hits / %zu requests (%.1f%%)\n",
                static_cast<unsigned long long>(hits), requests.size(),
                100.0 * static_cast<double>(hits) /
                    static_cast<double>(requests.size()));
  }
  const uint64_t shed = CounterValue("taxorec.serve.shed");
  if (shed > 0 || queued_mode || deadline_ms > 0.0 ||
      serve_opts.admission.degrade) {
    std::printf(
        "overload: shed %llu (queue_full %llu, deadline %llu, draining "
        "%llu)  deadline_missed %llu  degraded %llu\n",
        static_cast<unsigned long long>(shed),
        static_cast<unsigned long long>(
            CounterValue("taxorec.serve.shed.queue_full")),
        static_cast<unsigned long long>(
            CounterValue("taxorec.serve.shed.deadline")),
        static_cast<unsigned long long>(
            CounterValue("taxorec.serve.shed.draining")),
        static_cast<unsigned long long>(
            CounterValue("taxorec.serve.deadline_missed")),
        static_cast<unsigned long long>(
            CounterValue("taxorec.serve.degraded")));
  }

  // Requests ranked by an exact sweep, the catalogue items each swept, and
  // the share the double tier's score bound skipped (0 on reduced tiers).
  const uint64_t exact = CounterValue("taxorec.serve.computed") -
                         CounterValue("taxorec.serve.ivf.queries");
  const uint64_t swept = CounterValue("taxorec.rank.items_swept");
  if (exact > 0 && swept > 0) {
    std::printf(
        "exact: %llu sweeps  %.0f items swept per request  %.1f%% pruned by "
        "the score bound\n",
        static_cast<unsigned long long>(exact),
        static_cast<double>(swept) / static_cast<double>(exact),
        100.0 *
            static_cast<double>(CounterValue("taxorec.rank.items_pruned")) /
            static_cast<double>(swept));
  }
  if (server.options().retrieval == RetrievalMode::kIvf) {
    const uint64_t q = CounterValue("taxorec.serve.ivf.queries");
    const uint64_t probed = CounterValue("taxorec.serve.ivf.cells_probed");
    const uint64_t pruned = CounterValue("taxorec.serve.ivf.cells_pruned");
    std::printf(
        "ivf: %llu queries  %.1f cells probed / %.1f pruned per query  "
        "%.0f items scored per query\n",
        static_cast<unsigned long long>(q),
        q > 0 ? static_cast<double>(probed) / static_cast<double>(q) : 0.0,
        q > 0 ? static_cast<double>(pruned) / static_cast<double>(q) : 0.0,
        q > 0 ? static_cast<double>(
                    CounterValue("taxorec.serve.ivf.items_scored")) /
                    static_cast<double>(q)
              : 0.0);
  }

  if (sampling) {
    StopSampling();
    if (Status s = WriteFoldedStacks(flame_path); !s.ok()) return Fail(s);
    std::printf("flame: wrote %llu sample(s) to %s\n",
                static_cast<unsigned long long>(SampleCount()),
                flame_path.c_str());
  }

  stats.Finish();
  if (obs_requested) {
    RequestObservability& obs = RequestObservability::Instance();
    if (!flags.GetString("request-log").empty()) {
      std::printf("request log: %s (%llu records, %llu ring-dropped)\n",
                  flags.GetString("request-log").c_str(),
                  static_cast<unsigned long long>(obs.recorded()),
                  static_cast<unsigned long long>(obs.ring_dropped()));
    }
    obs.Disarm();
  }

  if (!flags.GetString("out").empty()) {
    if (Status s = WriteResults(flags.GetString("out"), results); !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote %s\n", flags.GetString("out").c_str());
  }
  if (!flags.GetString("metrics-out").empty()) {
    std::ofstream out(flags.GetString("metrics-out"), std::ios::trunc);
    if (!out) {
      return Fail(Status::IOError("cannot write " +
                                  flags.GetString("metrics-out")));
    }
    out << MetricsRegistry::Instance().SnapshotJson() << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace taxorec::serve_tool

int main(int argc, char** argv) {
  return taxorec::serve_tool::Main(argc, argv);
}
