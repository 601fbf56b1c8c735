#include "core/trainer.h"

#include <chrono>
#include <fstream>
#include <utility>

#include "baselines/cml.h"
#include "baselines/hyperml.h"
#include "common/heap_stats.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/taxorec_model.h"
#include "core/telemetry.h"
#include "serve/request_log.h"

namespace taxorec {
namespace {

// Learning-rate multiplier applied on every rollback.
constexpr double kLrBackoff = 0.5;

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

/// Scans the model's parameters into `monitor`.
void ScanHealth(const Recommender& model, HealthMonitor* monitor) {
  static Counter* scans = MetricsRegistry::Instance().GetCounter(
      "taxorec.trainer.health_scans");
  {
    TraceSpan scan_span("health_scan");
    model.CheckHealth(monitor);
  }
  scans->Increment();
}

/// Reports a failed health scan to the telemetry sink and triggers the
/// flight recorder (serve/request_log.h): when a process both serves and
/// trains (hot retrain), the last N request lifecycles are exactly the
/// post-incident question. The dump is a no-op unless request
/// observability is armed with a dump path.
void ReportHealthFail(const TrainLoopOptions& opts, int epoch,
                      const HealthReport& report) {
  if (opts.telemetry != nullptr) opts.telemetry->EmitHealthFail(epoch, report);
  RequestObservability::Instance().TriggerDump("health_fail");
}

void Emit(const TrainLoopOptions& opts, TrainLoopEvent event) {
  if (opts.callback) opts.callback(event);
}

/// Writes `state` + the trainer bookkeeping entry to opts.checkpoint_path,
/// then reports the write (result count, telemetry, callback).
Status WriteTrainerCheckpoint(const Checkpoint& state, int next_epoch,
                              double lr_scale, int rollbacks,
                              const TrainLoopOptions& opts,
                              TrainLoopResult* result) {
  Checkpoint with_meta = state;  // map copy; matrices are value types
  Matrix meta(1, 3);
  meta.at(0, 0) = static_cast<double>(next_epoch);
  meta.at(0, 1) = lr_scale;
  meta.at(0, 2) = static_cast<double>(rollbacks);
  with_meta.Put(kTrainerStateEntry, std::move(meta));
  TAXOREC_RETURN_NOT_OK(with_meta.WriteFile(opts.checkpoint_path));
  ++result->checkpoints_written;
  if (opts.telemetry != nullptr) {
    opts.telemetry->EmitCheckpoint(next_epoch, opts.checkpoint_path,
                                   with_meta.SerializedBytes());
  }
  Emit(opts, {TrainLoopEvent::Kind::kCheckpoint, next_epoch, 0.0, lr_scale,
              opts.checkpoint_path});
  return Status::OK();
}

/// Seconds elapsed since `start`.
double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// "users_ir row 0 (nan)" clause for divergence Status messages, or "".
std::string FirstDefectClause(const HealthReport& report) {
  const HealthIssue* issue = report.first_issue();
  if (issue == nullptr) return "";
  return "; first defect: " + issue->matrix + " row " +
         std::to_string(issue->row) + " (" + issue->kind + ")";
}

/// Attaches the sink to the model for the loop's lifetime; detaching in the
/// destructor keeps the model from holding a dangling pointer after the
/// sink dies.
class ScopedModelTelemetry {
 public:
  ScopedModelTelemetry(Recommender* model, RunTelemetry* telemetry)
      : model_(model) {
    model_->SetTelemetry(telemetry);
  }
  ~ScopedModelTelemetry() { model_->SetTelemetry(nullptr); }
  ScopedModelTelemetry(const ScopedModelTelemetry&) = delete;
  ScopedModelTelemetry& operator=(const ScopedModelTelemetry&) = delete;

 private:
  Recommender* model_;
};

}  // namespace

std::unique_ptr<Recommender> MakeAblationVariant(const std::string& variant,
                                                 const ModelConfig& config) {
  if (variant == "CML") return std::make_unique<Cml>(config);
  if (variant == "Hyper+CML") return std::make_unique<HyperMl>(config);
  if (variant == "CML+Agg") {
    TaxoRecOptions opts;
    opts.hyperbolic = false;
    opts.lambda = 0.0;
    opts.display_name = "CML+Agg";
    return std::make_unique<TaxoRecModel>(config, opts);
  }
  if (variant == "Hyper+CML+Agg") {
    TaxoRecOptions opts;
    opts.lambda = 0.0;
    opts.display_name = "Hyper+CML+Agg";
    return std::make_unique<TaxoRecModel>(config, opts);
  }
  if (variant == "TaxoRec") {
    TaxoRecOptions opts;
    opts.lambda = config.reg_lambda;
    return std::make_unique<TaxoRecModel>(config, opts);
  }
  return nullptr;
}

StatusOr<TrainLoopResult> RunTrainLoop(Recommender* model,
                                       const DataSplit& split, Rng* rng,
                                       const TrainLoopOptions& opts) {
  TrainLoopResult result;
  static const int kHeapTag = RegisterHeapSubsystem("train");
  HeapScope heap_scope(kHeapTag);
  TraceSpan loop_span("train_loop");
  ScopedModelTelemetry scoped_telemetry(model, opts.telemetry);

  if ((!opts.checkpoint_path.empty() || opts.resume || opts.save_every > 0) &&
      model->SaveState().size() == 0) {
    return Status::InvalidArgument(model->name() +
                                   " has no training state to checkpoint "
                                   "or resume");
  }

  const int total_epochs = model->config().epochs;
  int start_epoch = 0;
  double lr_scale = 1.0;
  int rollbacks = 0;

  if (opts.resume && !opts.checkpoint_path.empty() &&
      FileExists(opts.checkpoint_path)) {
    auto ckpt = Checkpoint::ReadFile(opts.checkpoint_path);
    if (!ckpt.ok()) return ckpt.status();
    const Matrix* meta = ckpt->Get(kTrainerStateEntry);
    if (meta == nullptr || meta->rows() != 1 || meta->cols() < 3) {
      return Status::InvalidArgument(
          "checkpoint has no trainer state (written without RunTrainLoop?): " +
          opts.checkpoint_path);
    }
    start_epoch = static_cast<int>(meta->at(0, 0));
    lr_scale = meta->at(0, 1);
    rollbacks = static_cast<int>(meta->at(0, 2));
    if (start_epoch < 0 || lr_scale <= 0.0) {
      return Status::InvalidArgument("corrupt trainer state in " +
                                     opts.checkpoint_path);
    }
    if (start_epoch > total_epochs) {
      return Status::InvalidArgument(
          opts.checkpoint_path + " was saved at epoch " +
          std::to_string(start_epoch) + ", past this run's " +
          std::to_string(total_epochs) + " epochs; raise --epochs");
    }
    TAXOREC_RETURN_NOT_OK(model->RestoreState(*ckpt, split));
    if (lr_scale != 1.0) model->ScaleLearningRate(lr_scale);
    static Counter* resumes =
        MetricsRegistry::Instance().GetCounter("taxorec.trainer.resumes");
    resumes->Increment();
    TAXOREC_LOG(INFO) << "resumed from checkpoint"
                      << Kv("path", opts.checkpoint_path)
                      << Kv("bytes", ckpt->SerializedBytes())
                      << Kv("epoch", start_epoch)
                      << Kv("lr_scale", lr_scale);
    if (opts.telemetry != nullptr) {
      opts.telemetry->EmitResume(start_epoch, opts.checkpoint_path, lr_scale);
    }
    Emit(opts, {TrainLoopEvent::Kind::kResume, start_epoch, 0.0, lr_scale,
                opts.checkpoint_path});
  } else {
    model->BeginFit(split, rng);
  }
  result.start_epoch = start_epoch;

  // In-memory snapshot of the last healthy state; rollback target.
  Checkpoint snapshot = model->SaveState();
  int snapshot_epoch = start_epoch;

  static Counter* epochs_counter =
      MetricsRegistry::Instance().GetCounter("taxorec.trainer.epochs");
  static Counter* rollbacks_counter =
      MetricsRegistry::Instance().GetCounter("taxorec.trainer.rollbacks");

  int epoch = start_epoch;
  while (epoch < total_epochs) {
    const auto epoch_start = std::chrono::steady_clock::now();
    const double loss = model->FitEpoch(split, epoch, rng);
    const double epoch_wall = SecondsSince(epoch_start);

    HealthMonitor monitor(opts.health);
    monitor.CheckLoss(epoch, loss);
    ScanHealth(*model, &monitor);
    if (!monitor.healthy()) {
      ReportHealthFail(opts, epoch, monitor.report());
      if (snapshot.size() == 0 || rollbacks >= opts.max_divergence_retries) {
        return Status::Internal(
            model->name() + " diverged at epoch " + std::to_string(epoch) +
            (snapshot.size() == 0
                 ? std::string(" with no training state to roll back")
                 : " after " + std::to_string(rollbacks) + " rollback(s)") +
            ": " + monitor.report().ToString() +
            FirstDefectClause(monitor.report()));
      }
      TAXOREC_RETURN_NOT_OK(model->RestoreState(snapshot, split));
      model->ScaleLearningRate(kLrBackoff);
      lr_scale *= kLrBackoff;
      ++rollbacks;
      rollbacks_counter->Increment();
      TAXOREC_LOG(WARN) << "divergence rollback" << Kv("epoch", epoch)
                        << Kv("snapshot_epoch", snapshot_epoch)
                        << Kv("lr_scale", lr_scale)
                        << Kv("report", monitor.report().ToString());
      if (opts.telemetry != nullptr) {
        opts.telemetry->EmitRollback(epoch, lr_scale, monitor.report());
      }
      Emit(opts, {TrainLoopEvent::Kind::kRollback, epoch, loss, lr_scale,
                  monitor.report().ToString()});
      epoch = snapshot_epoch;
      continue;
    }

    result.final_loss = loss;
    ++result.epochs_run;
    epochs_counter->Increment();
    if (opts.telemetry != nullptr) {
      opts.telemetry->EmitEpoch(epoch, loss, lr_scale, epoch_wall);
    }
    Emit(opts, {TrainLoopEvent::Kind::kEpoch, epoch, loss, lr_scale, ""});
    ++epoch;
    snapshot = model->SaveState();
    snapshot_epoch = epoch;

    if (opts.save_every > 0 && !opts.checkpoint_path.empty() &&
        epoch % opts.save_every == 0 && epoch < total_epochs) {
      TAXOREC_RETURN_NOT_OK(WriteTrainerCheckpoint(
          snapshot, epoch, lr_scale, rollbacks, opts, &result));
    }
  }

  model->EndFit(split);

  HealthMonitor final_monitor(opts.health);
  ScanHealth(*model, &final_monitor);
  if (!final_monitor.healthy()) {
    ReportHealthFail(opts, total_epochs, final_monitor.report());
    return Status::Internal(model->name() + " finished unhealthy: " +
                            final_monitor.report().ToString() +
                            FirstDefectClause(final_monitor.report()));
  }

  if (!opts.checkpoint_path.empty()) {
    TAXOREC_RETURN_NOT_OK(WriteTrainerCheckpoint(
        model->SaveState(), total_epochs, lr_scale, rollbacks, opts, &result));
  }

  result.rollbacks = rollbacks;
  result.lr_scale = lr_scale;
  return result;
}

}  // namespace taxorec
