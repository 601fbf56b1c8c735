// Common interface for every recommendation model in the repository
// (the 14 baselines of §V-A3 and the TaxoRec core), plus a name-based
// factory used by the benchmark harness.
#ifndef TAXOREC_BASELINES_RECOMMENDER_H_
#define TAXOREC_BASELINES_RECOMMENDER_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/checkpoint.h"
#include "common/health.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/sampler.h"
#include "math/rng.h"
#include "serve/snapshot.h"

namespace taxorec {

class RunTelemetry;  // core/telemetry.h; baselines never depend on core

/// Knobs shared by all models; each model reads what applies to it.
struct ModelConfig {
  size_t dim = 64;        // total embedding dimension D
  size_t tag_dim = 12;    // D_t for tag-based models (paper §V-A4)
  int epochs = 30;
  size_t batches_per_epoch = 20;
  size_t batch_size = 512;
  double lr = 0.05;
  double margin = 1.0;       // m for metric models (paper grid scaled by 5x; see EXPERIMENTS.md)
  int gcn_layers = 3;        // L for graph models
  double reg_lambda = 0.1;   // λ for TaxoRec's taxonomy regularizer
  /// Learning-rate multiplier for TaxoRec's tag channel (the warm-up does
  /// the heavy lifting of organizing the tag space; values above ~2
  /// destabilize joint training).
  double tag_lr_mult = 1.0;
  /// Multiplier on the personalized tag weight α_u in Eq. 17. Squared
  /// distances grow linearly with dimension, so the D_t-dimensional tag
  /// term is structurally down-weighted by ~D_t/D_i relative to the
  /// ir-channel term; a scale of roughly D_i/D_t rebalances the channels
  /// (see DESIGN.md §4). The effective weight is min(1, alpha_scale·α_u).
  double alpha_scale = 4.0;
  double grad_clip = 1.0;
  /// Negative sampling strategy (uniform or popularity-weighted).
  NegativeSampling neg_sampling = NegativeSampling::kUniform;
  uint64_t seed = 13;
  // TaxoRec taxonomy knobs (also read by the builder).
  int taxo_k = 3;
  double taxo_delta = 0.5;
  int taxo_rebuild_every = 5;  // epochs between taxonomy rebuilds
  /// Tag-space warm-up: contrastive co-occurrence steps (per tag) run on
  /// the Poincaré tag table before joint training. Equivalent to front-
  /// loading the tag-channel epochs of joint training; 0 disables.
  int tag_warmup_per_tag = 400;
};

/// A trained (or trainable) top-N recommender.
///
/// Training protocol: BeginFit, then FitEpoch for each epoch in order, then
/// EndFit. BeginFit, every FitEpoch and EndFit receive the same split,
/// which outlives them. Fit is that sequence by construction; the
/// fault-tolerant loop (core/trainer.h) runs it with a health scan and a
/// snapshot between epochs, so a run that never rolls back trains the model
/// bit-identically to Fit from the same `rng`.
class Recommender {
 public:
  Recommender() = default;
  explicit Recommender(const ModelConfig& config) : config_(config) {}
  virtual ~Recommender() = default;

  virtual std::string name() const = 0;

  /// Trains on the training split: BeginFit, FitEpoch for epochs
  /// 0 .. config().epochs - 1, EndFit. `rng` drives sampling and
  /// initialization.
  void Fit(const DataSplit& split, Rng* rng);

  /// Writes a preference score for every item (higher = better) for `user`.
  /// `out` has split.num_items entries. Default: over the declared rows,
  /// vec::Dot or -ScoringSnapshot::PairDistance per item. A model that
  /// declares no rows must override it.
  virtual void ScoreItems(uint32_t user, std::span<double> out) const;

  /// scoring_rows() as a view for serving (serve/frozen_model.h), or a
  /// kVirtual view that scores through ScoreItems; the model must outlive
  /// it (serve/snapshot.h). Scores are bit-identical to ScoreItems.
  ScoringSnapshot ExportScoringSnapshot() const;

  /// Prepares training state (parameter init, warm-up, samplers, step
  /// buffers).
  virtual void BeginFit(const DataSplit& split, Rng* rng) {}

  /// Runs training epoch `epoch`; returns the summed epoch loss (0 when
  /// the model does not track one).
  virtual double FitEpoch(const DataSplit& split, int epoch, Rng* rng) {
    return 0.0;
  }

  /// Finalizes training (final forward pass, last taxonomy rebuild).
  virtual void EndFit(const DataSplit& split) {}

  /// Multiplies the learning rate by `factor` > 0 (divergence backoff).
  void ScaleLearningRate(double factor) {
    TAXOREC_CHECK(factor > 0.0);
    config_.lr *= factor;
  }

  const ModelConfig& config() const { return config_; }

  /// Reports parameter health (NaN/Inf, off-manifold drift) into `monitor`.
  /// Default: the declared rows as "users" and "items", CheckLorentzRows
  /// on the hyperboloid and CheckFinite otherwise; no checks without them.
  virtual void CheckHealth(HealthMonitor* monitor) const;

  /// Snapshot of the trainable state for rollback/resume. Default: empty;
  /// RunTrainLoop then neither checkpoints nor rolls back the model.
  virtual Checkpoint SaveState() const { return Checkpoint(); }

  /// Restores a SaveState snapshot; the model must be ready to continue
  /// FitEpoch afterwards. Default: FailedPrecondition.
  virtual Status RestoreState(const Checkpoint& ckpt, const DataSplit& split);

  /// Attaches (nullptr detaches) a telemetry sink for model-internal events
  /// (e.g. TaxoRecModel's taxonomy rebuilds). Not owned; the caller —
  /// normally RunTrainLoop — must detach before the sink dies. Telemetry
  /// never changes model numerics.
  void SetTelemetry(RunTelemetry* telemetry) { telemetry_ = telemetry; }
  RunTelemetry* telemetry() const { return telemetry_; }

 protected:
  /// The rows this model scores with, declared once: ScoreItems,
  /// ExportScoringSnapshot and CheckHealth read them, so a model's scores
  /// and its served view cannot disagree. Default: none; the model then
  /// overrides ScoreItems and serves as a kVirtual view.
  virtual ScoringSnapshot scoring_rows() const { return {}; }

 private:
  ModelConfig config_;
  RunTelemetry* telemetry_ = nullptr;
};

using RecommenderFactory =
    std::function<std::unique_ptr<Recommender>(const ModelConfig&)>;

/// Names registered in the factory, in Table II row order.
std::vector<std::string> RegisteredModelNames();

/// Creates a model by Table II name ("BPRMF", "CML", ..., "TaxoRec").
/// Returns nullptr for unknown names.
std::unique_ptr<Recommender> MakeModel(const std::string& name,
                                       const ModelConfig& config);

}  // namespace taxorec

#endif  // TAXOREC_BASELINES_RECOMMENDER_H_
