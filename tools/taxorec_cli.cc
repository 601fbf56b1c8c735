// taxorec_cli — command-line interface to the library.
//
//   taxorec_cli generate --profile yelp --out data.tsv
//   taxorec_cli generate --users 500 --items 800 --tags 60 --out data.tsv
//   taxorec_cli stats --data data.tsv
//   taxorec_cli train --data data.tsv --model TaxoRec --epochs 25
//       --checkpoint model.ckpt --save-every 5
//   taxorec_cli train --data data.tsv --checkpoint model.ckpt --resume
//   taxorec_cli recommend --data data.tsv --checkpoint model.ckpt --user 7
//   taxorec_cli taxonomy --data data.tsv --checkpoint model.ckpt
//       --dot taxo.dot --json taxo.json
//
// `train` works for every registered model; `recommend`/`taxonomy` restore
// a TaxoRec checkpoint (checkpointing of baselines is not exposed here).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <utility>

#include "common/checkpoint.h"
#include "common/fault_injection.h"
#include "common/flags.h"
#include "common/introspection.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/sampling_profiler.h"
#include "common/trace.h"
#include "core/taxorec_model.h"
#include "core/telemetry.h"
#include "core/trainer.h"
#include "data/io.h"
#include "data/profiles.h"
#include "data/split.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/recommend.h"
#include "taxonomy/export.h"

namespace taxorec::cli {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

StatusOr<Dataset> LoadData(const FlagSet& flags) {
  const std::string path = flags.GetString("data");
  if (path.empty()) {
    return Status::InvalidArgument("--data is required");
  }
  return LoadDataset(path);
}

/// The model flags as a config; rejects sizes that would wrap or abort
/// (`min_item_dim`: what the model needs of --dim − --tag-dim, 0 when it
/// ignores --tag-dim).
StatusOr<ModelConfig> ConfigFromFlags(const FlagSet& flags,
                                      size_t min_item_dim) {
  TAXOREC_RETURN_NOT_OK(CheckModelSizeFlags(flags, min_item_dim));
  if (flags.GetInt("layers") < 1) {
    return Status::InvalidArgument("--layers must be >= 1");
  }
  ModelConfig cfg;
  cfg.dim = static_cast<size_t>(flags.GetInt("dim"));
  cfg.tag_dim = static_cast<size_t>(flags.GetInt("tag-dim"));
  cfg.epochs = static_cast<int>(flags.GetInt("epochs"));
  cfg.lr = flags.GetDouble("lr");
  cfg.margin = flags.GetDouble("margin");
  cfg.gcn_layers = static_cast<int>(flags.GetInt("layers"));
  cfg.reg_lambda = flags.GetDouble("lambda");
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  return cfg;
}

void DefineModelFlags(FlagSet* flags) {
  flags->DefineString("data", "", "dataset TSV path");
  flags->DefineInt("dim", 64, "total embedding dimension D");
  flags->DefineInt("tag-dim", 12, "tag-channel dimension D_t");
  flags->DefineInt("epochs", 25, "training epochs");
  flags->DefineDouble("lr", 0.05, "learning rate");
  flags->DefineDouble("margin", 2.0, "hinge margin m");
  flags->DefineInt("layers", 3, "GCN layers L");
  flags->DefineDouble("lambda", 0.1, "taxonomy regularization weight");
  flags->DefineInt("seed", 13, "random seed");
  DefineThreadsFlag(flags);
  DefineLogLevelFlag(flags);
  flags->DefineString("log-file", "", "mirror log lines to this file");
}

/// Applies --log-level / --log-file (shared by every subcommand).
Status ApplyLoggingFlags(const FlagSet& flags) {
  TAXOREC_RETURN_NOT_OK(ApplyLogLevelFlag(flags));
  const std::string log_file = flags.GetString("log-file");
  if (!log_file.empty()) TAXOREC_RETURN_NOT_OK(SetLogFile(log_file));
  return Status::OK();
}

int CmdGenerate(int argc, const char* const* argv) {
  FlagSet flags;
  flags.DefineString("profile", "", "named profile (ciao|amazon-cd|...)");
  flags.DefineString("out", "data.tsv", "output TSV path");
  flags.DefineInt("users", 500, "users (custom profile)");
  flags.DefineInt("items", 800, "items (custom profile)");
  flags.DefineInt("tags", 60, "tags (custom profile)");
  flags.DefineInt("seed", 42, "generator seed");
  if (Status s = flags.Parse(argc, argv, 2); !s.ok()) return Fail(s);
  // The generator plants num_roots root subtrees, each with its own tag.
  const std::pair<std::string, int64_t> min_sizes[] = {
      {"users", 1}, {"items", 1}, {"tags", SyntheticConfig().num_roots}};
  for (const auto& [size, min] : min_sizes) {
    if (flags.GetInt(size) < min) {
      return Fail(Status::InvalidArgument("--" + size + " must be >= " +
                                          std::to_string(min)));
    }
  }

  Dataset data;
  if (!flags.GetString("profile").empty()) {
    auto d = MakeProfileDataset(flags.GetString("profile"));
    if (!d.ok()) return Fail(d.status());
    data = std::move(*d);
  } else {
    SyntheticConfig cfg;
    cfg.name = "custom";
    cfg.num_users = static_cast<size_t>(flags.GetInt("users"));
    cfg.num_items = static_cast<size_t>(flags.GetInt("items"));
    cfg.num_tags = static_cast<size_t>(flags.GetInt("tags"));
    cfg.seed = static_cast<uint64_t>(flags.GetInt("seed"));
    data = GenerateSynthetic(cfg);
  }
  if (Status s = SaveDataset(data, flags.GetString("out")); !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %s: %zu users, %zu items, %zu interactions, %zu tags\n",
              flags.GetString("out").c_str(), data.num_users, data.num_items,
              data.interactions.size(), data.num_tags);
  return 0;
}

int CmdStats(int argc, const char* const* argv) {
  FlagSet flags;
  flags.DefineString("data", "", "dataset TSV path");
  if (Status s = flags.Parse(argc, argv, 2); !s.ok()) return Fail(s);
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status());
  const DatasetStats s = ComputeStats(*data);
  std::printf("dataset %s\n", data->name.c_str());
  std::printf("  users %zu  items %zu  interactions %zu  density %.4f%%\n",
              s.num_users, s.num_items, s.num_interactions,
              100.0 * s.density);
  std::printf("  interactions/user: mean %.1f median %.1f\n",
              s.mean_interactions_per_user, s.median_interactions_per_user);
  std::printf("  tags %zu  item-tag edges %zu  tags/item %.2f\n", s.num_tags,
              s.num_item_tag_edges, s.mean_tags_per_item);
  std::printf("  item popularity gini %.3f\n", s.item_popularity_gini);
  if (!s.tags_per_depth.empty()) {
    std::printf("  planted taxonomy depth %d, tags per depth:", s.max_tag_depth);
    for (size_t n : s.tags_per_depth) std::printf(" %zu", n);
    std::printf("\n");
  }
  return 0;
}

int CmdTrain(int argc, const char* const* argv) {
  FlagSet flags;
  DefineModelFlags(&flags);
  flags.DefineString("model", "TaxoRec", "model name (see README)");
  flags.DefineString("checkpoint", "",
                     "checkpoint path (models with a training state: "
                     "TaxoRec, HyperML)");
  flags.DefineInt("save-every", 0,
                  "write --checkpoint every K healthy epochs (0 = final "
                  "write only)");
  flags.DefineBool("resume", false,
                   "continue from --checkpoint if it exists");
  flags.DefineInt("max-divergence-retries", 3,
                  "rollbacks before training gives up with an error");
  flags.DefineString("inject-fault", "",
                     "arm a fault site: 'grad-nan[@epoch]' or 'ckpt-write' "
                     "(recovery drills)");
  flags.DefineString("telemetry-out", "",
                     "write per-run JSONL events (epochs, health, rollbacks, "
                     "checkpoints, eval) here");
  flags.DefineString("metrics-out", "",
                     "write the final metrics-registry snapshot JSON here");
  flags.DefineString("trace-out", "",
                     "collect trace spans and write Chrome trace JSON here");
  flags.DefineString("profile-out", "",
                     "aggregate trace spans into a call-path wall-time "
                     "profile and write it as JSONL here (render with "
                     "`telemetry_report --profile`)");
  flags.DefineString("flame-out", "",
                     "run the sampling CPU profiler and write folded stacks "
                     "here (flamegraph.pl input; render a table with "
                     "`telemetry_report --flame`)");
  if (Status s = flags.Parse(argc, argv, 2); !s.ok()) return Fail(s);
  const std::string name = flags.GetString("model");
  // TaxoRec and AMF carve the tag channel out of --dim; the other models
  // ignore --tag-dim.
  const auto cfg_or = ConfigFromFlags(
      flags, name == "TaxoRec" ? kTaxoRecMinItemDim : name == "AMF" ? 1 : 0);
  if (!cfg_or.ok()) return Fail(cfg_or.status());
  const ModelConfig& cfg = *cfg_or;
  if (Status s = ApplyThreadsFlag(flags); !s.ok()) return Fail(s);
  if (Status s = ApplyLoggingFlags(flags); !s.ok()) return Fail(s);
  const std::string fault_spec = flags.GetString("inject-fault");
  if (!fault_spec.empty()) {
    if (Status s = FaultInjector::Instance().ArmFromSpec(fault_spec);
        !s.ok()) {
      return Fail(s);
    }
    std::printf("fault armed: %s\n", fault_spec.c_str());
  }
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status());
  const DataSplit split = TemporalSplit(*data);

  auto model = MakeModel(name, cfg);
  if (model == nullptr) {
    return Fail(Status::InvalidArgument("unknown model: " + name));
  }
  const std::string ckpt_path = flags.GetString("checkpoint");
  TrainLoopOptions loop;
  loop.checkpoint_path = ckpt_path;
  loop.save_every = static_cast<int>(flags.GetInt("save-every"));
  loop.resume = flags.GetBool("resume");
  loop.max_divergence_retries =
      static_cast<int>(flags.GetInt("max-divergence-retries"));
  if (loop.resume && ckpt_path.empty()) {
    return Fail(Status::InvalidArgument("--resume requires --checkpoint"));
  }
  // SIGUSR1 asks the run for a live metrics dump; the handler only raises
  // a flag and the per-epoch callback below does the unsafe work.
  const std::string metrics_path = flags.GetString("metrics-out");
  if (Status s = InstallSigusr1Handler(); !s.ok()) return Fail(s);
  loop.callback = [&metrics_path](const TrainLoopEvent& e) {
    if (e.kind == TrainLoopEvent::Kind::kEpoch &&
        ConsumeIntrospectionRequest()) {
      const std::string path =
          metrics_path.empty() ? "taxorec_metrics_dump.json" : metrics_path;
      std::ofstream out(path, std::ios::trunc);
      if (out) out << MetricsRegistry::Instance().SnapshotJson() << "\n";
      std::printf("SIGUSR1: metrics snapshot written to %s (epoch %d)\n",
                  path.c_str(), e.epoch);
    }
    switch (e.kind) {
      case TrainLoopEvent::Kind::kResume:
        std::printf("resumed from %s at epoch %d (lr scale %.4g)\n",
                    e.detail.c_str(), e.epoch, e.lr_scale);
        break;
      case TrainLoopEvent::Kind::kRollback:
        std::printf(
            "epoch %d diverged; rolled back to last healthy state, lr scale "
            "now %.4g [%s]\n",
            e.epoch, e.lr_scale, e.detail.c_str());
        break;
      case TrainLoopEvent::Kind::kCheckpoint:
        std::printf("checkpoint written to %s (next epoch %d)\n",
                    e.detail.c_str(), e.epoch);
        break;
      case TrainLoopEvent::Kind::kEpoch:
        break;  // keep per-epoch output quiet, as before
    }
  };

  // Observability sinks. Telemetry/metrics/tracing never change model
  // numerics: a run without these flags is bit-identical to one with them.
  std::unique_ptr<RunTelemetry> telemetry;
  if (!flags.GetString("telemetry-out").empty()) {
    RunManifest manifest;
    manifest.model = name;
    manifest.dataset = flags.GetString("data");
    manifest.seed = cfg.seed;
    manifest.threads = static_cast<int>(flags.GetInt("threads"));
    manifest.epochs = cfg.epochs;
    for (int i = 2; i < argc; ++i) {
      if (i > 2) manifest.flags += ' ';
      manifest.flags += argv[i];
    }
    auto sink = RunTelemetry::Open(flags.GetString("telemetry-out"), manifest);
    if (!sink.ok()) return Fail(sink.status());
    telemetry = std::move(*sink);
    loop.telemetry = telemetry.get();
  }
  const bool tracing = !flags.GetString("trace-out").empty();
  if (tracing) StartTracing();
  const bool profiling = !flags.GetString("profile-out").empty();
  if (profiling) StartProfiling();
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
  // Flushes the trace and metrics sinks; runs on every exit path so a
  // failed run still leaves its observability artifacts behind.
  auto finalize = [&]() -> Status {
    if (tracing) {
      StopTracing();
      TAXOREC_RETURN_NOT_OK(WriteChromeTrace(flags.GetString("trace-out")));
    }
    if (profiling) {
      StopProfiling();
      TAXOREC_RETURN_NOT_OK(
          WriteProfileJsonl(flags.GetString("profile-out")));
    }
    if (sampling) {
      StopSampling();
      TAXOREC_RETURN_NOT_OK(WriteFoldedStacks(flame_path));
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path, std::ios::trunc);
      if (!out) return Status::IOError("cannot write " + metrics_path);
      out << MetricsRegistry::Instance().SnapshotJson() << "\n";
    }
    return Status::OK();
  };

  std::printf("training %s on %s ...\n", name.c_str(), data->name.c_str());
  const auto run_start = std::chrono::steady_clock::now();
  auto run_seconds = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         run_start)
        .count();
  };
  Rng rng(cfg.seed);
  auto result = RunTrainLoop(model.get(), split, &rng, loop);
  if (!result.ok()) {
    if (telemetry != nullptr) {
      telemetry->EmitRunEnd(false, result.status().ToString(), 0, 0, 0.0,
                            run_seconds());
    }
    if (Status s = finalize(); !s.ok()) return Fail(s);
    return Fail(result.status());
  }
  if (result->rollbacks > 0) {
    std::printf("recovered from %d divergence(s); final lr scale %.4g\n",
                result->rollbacks, result->lr_scale);
  }
  const auto eval_start = std::chrono::steady_clock::now();
  const EvalResult r = EvaluateRanking(*model, split);
  if (telemetry != nullptr) {
    telemetry->EmitEval(
        r, std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         eval_start)
               .count());
    telemetry->EmitRunEnd(true, "ok", result->epochs_run, result->rollbacks,
                          result->final_loss, run_seconds());
  }
  std::printf("test Recall@10 %.4f  Recall@20 %.4f  NDCG@10 %.4f  NDCG@20 "
              "%.4f (%zu users)\n",
              r.recall[0], r.recall[1], r.ndcg[0], r.ndcg[1],
              r.num_eval_users);
  if (Status s = finalize(); !s.ok()) return Fail(s);
  return 0;
}

StatusOr<Dataset> RestoreTaxoRec(const FlagSet& flags, TaxoRecModel* model,
                                 DataSplit* split) {
  auto data = LoadData(flags);
  if (!data.ok()) return data.status();
  *split = TemporalSplit(*data);
  auto ckpt = Checkpoint::ReadFile(flags.GetString("checkpoint"));
  if (!ckpt.ok()) return ckpt.status();
  TAXOREC_RETURN_NOT_OK(model->RestoreCheckpoint(*ckpt, *split));
  return data;
}

int CmdRecommend(int argc, const char* const* argv) {
  FlagSet flags;
  DefineModelFlags(&flags);
  flags.DefineString("checkpoint", "", "TaxoRec checkpoint path");
  flags.DefineInt("user", 0, "user id");
  flags.DefineInt("k", 10, "recommendations to print");
  if (Status s = flags.Parse(argc, argv, 2); !s.ok()) return Fail(s);
  if (flags.GetInt("k") < 1) {
    return Fail(Status::InvalidArgument("--k must be >= 1"));
  }
  const auto cfg = ConfigFromFlags(flags, kTaxoRecMinItemDim);
  if (!cfg.ok()) return Fail(cfg.status());
  if (Status s = ApplyThreadsFlag(flags); !s.ok()) return Fail(s);
  if (Status s = ApplyLoggingFlags(flags); !s.ok()) return Fail(s);

  TaxoRecModel model(*cfg, TaxoRecOptions{});
  DataSplit split;
  auto data = RestoreTaxoRec(flags, &model, &split);
  if (!data.ok()) return Fail(data.status());

  const uint32_t user = static_cast<uint32_t>(flags.GetInt("user"));
  if (user >= split.num_users) {
    return Fail(Status::InvalidArgument("user id out of range"));
  }
  const auto recs = RecommendTopK(
      model, split, user, {.k = static_cast<size_t>(flags.GetInt("k"))});
  std::printf("top-%zu for user %u (alpha=%.2f):\n", recs.size(), user,
              model.alpha(user));
  for (const auto& r : recs) {
    std::printf("  item %-6u score %.4f  tags:", r.item, r.score);
    for (uint32_t t : split.item_tags.RowCols(r.item)) {
      std::printf(" <%s>", t < data->tag_names.size()
                               ? data->tag_names[t].c_str()
                               : "?");
    }
    std::printf("\n");
  }
  return 0;
}

int CmdTaxonomy(int argc, const char* const* argv) {
  FlagSet flags;
  DefineModelFlags(&flags);
  flags.DefineString("checkpoint", "", "TaxoRec checkpoint path");
  flags.DefineString("dot", "", "write Graphviz DOT here");
  flags.DefineString("json", "", "write JSON here");
  if (Status s = flags.Parse(argc, argv, 2); !s.ok()) return Fail(s);
  const auto cfg = ConfigFromFlags(flags, kTaxoRecMinItemDim);
  if (!cfg.ok()) return Fail(cfg.status());
  if (Status s = ApplyThreadsFlag(flags); !s.ok()) return Fail(s);
  if (Status s = ApplyLoggingFlags(flags); !s.ok()) return Fail(s);

  TaxoRecModel model(*cfg, TaxoRecOptions{});
  DataSplit split;
  auto data = RestoreTaxoRec(flags, &model, &split);
  if (!data.ok()) return Fail(data.status());

  const Taxonomy* taxo = model.taxonomy();
  if (taxo == nullptr) {
    return Fail(Status::FailedPrecondition("model has no taxonomy"));
  }
  std::printf("%s", taxo->ToString(data->tag_names, 3).c_str());
  auto write_file = [&](const std::string& path,
                        const std::string& contents) -> Status {
    if (path.empty()) return Status::OK();
    std::ofstream out(path);
    if (!out) return Status::IOError("cannot write " + path);
    out << contents;
    return Status::OK();
  };
  if (Status s = write_file(flags.GetString("dot"),
                            TaxonomyToDot(*taxo, data->tag_names));
      !s.ok()) {
    return Fail(s);
  }
  if (Status s = write_file(flags.GetString("json"),
                            TaxonomyToJson(*taxo, data->tag_names));
      !s.ok()) {
    return Fail(s);
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: taxorec_cli <generate|stats|train|recommend|taxonomy> "
               "[flags]\n");
  return 2;
}

int Main(int argc, const char* const* argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "generate") return CmdGenerate(argc, argv);
  if (cmd == "stats") return CmdStats(argc, argv);
  if (cmd == "train") return CmdTrain(argc, argv);
  if (cmd == "recommend") return CmdRecommend(argc, argv);
  if (cmd == "taxonomy") return CmdTaxonomy(argc, argv);
  return Usage();
}

}  // namespace
}  // namespace taxorec::cli

int main(int argc, char** argv) { return taxorec::cli::Main(argc, argv); }
