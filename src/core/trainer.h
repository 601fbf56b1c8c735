// Training entry points: the ablation factory and the fault-tolerant
// training loop (health monitoring, periodic checkpoints, divergence
// rollback).
#ifndef TAXOREC_CORE_TRAINER_H_
#define TAXOREC_CORE_TRAINER_H_

#include <functional>
#include <memory>
#include <string>

#include "baselines/recommender.h"
#include "common/health.h"
#include "common/status.h"

namespace taxorec {

class RunTelemetry;  // core/telemetry.h

/// Ablation variants of Table III. Accepted names: "CML", "CML+Agg",
/// "Hyper+CML", "Hyper+CML+Agg", "TaxoRec". Returns nullptr for unknown
/// names. ("CML" and "Hyper+CML" resolve to the CML and HyperML baselines,
/// exactly as in the paper's ablation rows.)
std::unique_ptr<Recommender> MakeAblationVariant(const std::string& variant,
                                                 const ModelConfig& config);

/// Checkpoint entry holding the loop's own state (next epoch, cumulative
/// learning-rate scale, rollback count) next to the model matrices.
inline constexpr char kTrainerStateEntry[] = "__trainer_state";

/// Progress events emitted by RunTrainLoop via TrainLoopOptions::callback.
struct TrainLoopEvent {
  enum class Kind {
    kEpoch,       // epoch finished healthy
    kCheckpoint,  // checkpoint written to disk
    kRollback,    // divergence detected; state restored, lr scaled down
    kResume,      // run resumed from an on-disk checkpoint
  };
  Kind kind;
  int epoch = 0;        // epoch the event refers to
  double loss = 0.0;    // epoch loss (kEpoch) or 0
  double lr_scale = 1;  // cumulative learning-rate scale after the event
  std::string detail;   // human-readable context (health report, path)
};

/// A model whose SaveState() is empty (every baseline but HyperML) has no
/// state to write or restore: RunTrainLoop rejects `checkpoint_path`,
/// `save_every` and `resume` for it with InvalidArgument before training.
struct TrainLoopOptions {
  /// Checkpoint file ("" disables persistence; rollback then uses only the
  /// in-memory snapshot).
  std::string checkpoint_path;
  /// Write `checkpoint_path` every K healthy epochs (0 = final write only).
  int save_every = 0;
  /// Continue from `checkpoint_path` if it exists (requires the trainer
  /// state entry written by a previous RunTrainLoop).
  bool resume = false;
  /// Divergence budget: after this many rollbacks the loop returns an
  /// error Status instead of retrying (never aborts the process).
  int max_divergence_retries = 3;
  HealthOptions health;
  std::function<void(const TrainLoopEvent&)> callback;
  /// Optional JSONL sink; the loop emits epoch/health/rollback/checkpoint/
  /// resume events and attaches the sink to the model for the duration of
  /// the run (taxonomy rebuild events). Not owned; must outlive the call.
  RunTelemetry* telemetry = nullptr;
};

struct TrainLoopResult {
  /// First epoch executed by this invocation (> 0 after a resume).
  int start_epoch = 0;
  int epochs_run = 0;
  int rollbacks = 0;
  int checkpoints_written = 0;
  double final_loss = 0.0;
  /// Cumulative learning-rate scale (0.5 ^ rollbacks, carried across
  /// resumes).
  double lr_scale = 1.0;
};

/// Resumable, self-healing training driver. It runs the training protocol
/// of recommender.h for config().epochs epochs and (1) scans parameters
/// and the epoch loss with a HealthMonitor after each epoch and after
/// EndFit, (2) snapshots the trainable state after every healthy epoch (in
/// memory; to `checkpoint_path` every `save_every` epochs and after
/// EndFit), and (3) on divergence rolls back to the last healthy snapshot,
/// halves the learning rate, and retries — up to `max_divergence_retries`
/// times, after which it returns an error Status. A model with no state
/// (see TrainLoopOptions) cannot roll back: its first divergence returns
/// the error, naming the model, the epoch, the report and the first defect.
///
/// Determinism contract: a run that never trips the monitor performs
/// exactly the model's Fit() operations (snapshots are const scans), so it
/// is bit-identical to Fit() at any --threads value.
StatusOr<TrainLoopResult> RunTrainLoop(Recommender* model,
                                       const DataSplit& split, Rng* rng,
                                       const TrainLoopOptions& opts = {});

}  // namespace taxorec

#endif  // TAXOREC_CORE_TRAINER_H_
