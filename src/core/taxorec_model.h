// TaxoRec: joint tag-taxonomy construction and recommendation in hyperbolic
// space (§IV of the paper).
//
// Architecture (hyperbolic mode):
//   - tag-irrelevant channel: Lorentz embeddings u^ir', v^ir'
//   - tag-relevant channel:   Lorentz user embeddings u^tg' and item
//     embeddings v^tg' produced from the Poincaré tag table T^P by the
//     Einstein-midpoint local aggregation (Eq. 9–11)
//   - global aggregation: log_o → bipartite GCN (Eq. 13–14) → exp_o
//     (Eq. 12, 15) applied to both channels, each an nn::GcnChannel over
//     one shared BipartiteGcn (HGCF is one such channel alone)
//   - similarity: g(u,v) = d_H²(u^ir, v^ir) + α_u d_H²(u^tg, v^tg) (Eq. 17)
//     with the personalized tag weight α_u of Eq. 16
//   - objective: LMNN hinge (Eq. 18) + λ·L^reg (Eq. 8), optimized with
//     Riemannian SGD (§IV-E); the taxonomy is rebuilt from the current tag
//     embeddings every few epochs (Algorithm 1).
//
// TaxoRecOptions realizes two of the paper's ablations (Table III):
//   hyperbolic=false  →  "CML + Agg" (Euclidean variant)
//   lambda=0          →  "Hyper + CML + Agg"
// "Hyper + CML" (no tag channel, no GCN) is HyperML (baselines/hyperml.h),
// which MakeAblationVariant returns for it.
#ifndef TAXOREC_CORE_TAXOREC_MODEL_H_
#define TAXOREC_CORE_TAXOREC_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/recommender.h"
#include "common/checkpoint.h"
#include "data/sampler.h"
#include "math/csr.h"
#include "math/matrix.h"
#include "nn/gcn.h"
#include "nn/midpoint.h"
#include "taxonomy/builder.h"
#include "taxonomy/regularizer.h"
#include "taxonomy/tree.h"

namespace taxorec {

/// Fewest coordinates of the tag-irrelevant channel (dim − tag_dim). The
/// constructor CHECKs it; taxorec_cli and taxorec_serve reject fewer.
inline constexpr size_t kTaxoRecMinItemDim = 2;

/// One step of the tag warm-up (DESIGN.md §4 item 6) on the Poincaré rows
/// t1 and t2 (two tags of one item) and t3 (a random tag): the hinge
/// max(0, margin + d_P(t1, t2) - d_P(t1, t3)) and, when it is active, one
/// RSGD step on each row, its gradient first clipped to grad_clip (<= 0: no
/// clip). Each pair term is computed once: three squared norms, two squared
/// distances, two dot products and two gamma (poincare::PairTerms). Nothing
/// is allocated; `scratch` (3 x tags->cols()) holds the three gradient
/// rows. t3 may equal t1 or t2; its row then steps twice, in the order
/// t1, t2, t3. Returns the hinge.
double TagWarmUpStep(Matrix* tags, uint32_t t1, uint32_t t2, uint32_t t3,
                     double margin, double lr, double grad_clip,
                     std::span<double> scratch);

struct TaxoRecOptions {
  bool hyperbolic = true;
  /// Taxonomy regularization weight λ (0 disables; only meaningful in
  /// hyperbolic mode, where the tag table lives in the Poincaré ball).
  double lambda = 0.1;
  RegularizerOptions reg;
  /// Optional pre-existing taxonomy (e.g. TaxonomyFromParents of data
  /// supplied with the catalogue). When set, automated construction is
  /// skipped and the regularizer uses this tree — the "incorporating
  /// existing taxonomies" extension of the paper's conclusion. Not owned;
  /// must outlive the model.
  const Taxonomy* fixed_taxonomy = nullptr;
  std::string display_name = "TaxoRec";
};

class TaxoRecModel : public Recommender {
 public:
  TaxoRecModel(const ModelConfig& config, TaxoRecOptions options);

  std::string name() const override { return options_.display_name; }

  // The training protocol of recommender.h. Every minibatch draws from
  // counter-based streams keyed on (seed, epoch, sample), so a resume from
  // a restored checkpoint is bit-identical to the uninterrupted run too.
  void BeginFit(const DataSplit& split, Rng* rng) override;
  double FitEpoch(const DataSplit& split, int epoch, Rng* rng) override;
  void EndFit(const DataSplit& split) override;
  void CheckHealth(HealthMonitor* monitor) const override;
  Checkpoint SaveState() const override { return SaveCheckpoint(); }
  Status RestoreState(const Checkpoint& ckpt,
                      const DataSplit& split) override {
    return RestoreCheckpoint(ckpt, split);
  }

  /// Latest constructed taxonomy (null before Fit or in Euclidean mode).
  const Taxonomy* taxonomy() const { return taxonomy_.get(); }

  /// Poincaré tag embeddings (hyperbolic mode).
  const Matrix& tag_embeddings() const { return tags_; }

  /// Personalized tag weight α_u (Eq. 16), available after Fit.
  double alpha(uint32_t user) const { return alpha_[user]; }

  /// Distances from the user's tag-channel representation to every tag
  /// (used by the Table V case study).
  std::vector<double> UserTagDistances(uint32_t user) const;

  /// Exports the trained leaf parameters as a named-matrix checkpoint
  /// ("users_ir", "items_ir", "users_tg", "tags").
  Checkpoint SaveCheckpoint() const;

  /// Restores a model from a checkpoint + the dataset split it was trained
  /// on (graph/tag structure is rebuilt from the split, then the final
  /// forward pass is recomputed). Shapes must match this model's config.
  Status RestoreCheckpoint(const Checkpoint& ckpt, const DataSplit& split);

 private:
  /// Eq. 17 on the propagated channels: a distance kernel, hyperbolic or
  /// Euclidean per the options, with the tag channel and alpha.
  ScoringSnapshot scoring_rows() const override {
    return {options_.hyperbolic ? ScoreKernel::kNegLorentzSqDist
                                : ScoreKernel::kNegSqDist,
            &ir_.out_u(), &ir_.out_v(), &tg_.out_u(), &tg_.out_v(), alpha_};
  }

  void ComputeAlpha(const DataSplit& split);
  /// Sets up dataset views, α, layers and (optionally) random leaves.
  void InitFromSplit(const DataSplit& split, Rng* rng, bool init_params);
  /// Rebuilds the taxonomy from the current tag table. `epoch` is only for
  /// telemetry (-1 = outside the epoch loop, e.g. checkpoint restore).
  void RebuildTaxonomy(int epoch);
  /// Data-driven initialization of u^tg' from the warmed-up tag table
  /// (Einstein midpoint of the user's interacted tags).
  void InitUserTagEmbeddings();
  /// Contrastive co-occurrence warm-up of the Poincaré tag table: tags
  /// sharing an item are pulled together, random non-co-occurring tags
  /// pushed apart (hinge + Poincaré RSGD). This organizes the tag space so
  /// Algorithm 1 has signal from the first rebuild; joint training then
  /// refines it (DESIGN.md §4).
  void WarmUpTags(Rng* rng);
  /// Runs the forward pass from the current leaves: the full one, or with
  /// `rows` the channels' last GCN layer and exp_o only at a batch's rows.
  void Propagate(const nn::BatchRows* rows = nullptr);
  /// One minibatch step; returns the summed hinge loss of the batch.
  /// The batch is drawn first, fanning out over counter-based RNG streams
  /// (Rng::Derive(seed, epoch, sample_index)), then propagated at its rows;
  /// per-sample gradient evaluation fans out over the batch, gradients
  /// are accumulated in sample order and the optimizers stepped — so the
  /// update is bit-identical at any thread count.
  double TrainStep(const TripletSampler& sampler, int epoch,
                   size_t batch_index);

  // One sample of TrainStep's fan-out.
  struct SampleRec {
    double a = 0.0;
    double loss = 0.0;
    bool active = false;
  };
  // What a step would allocate per call beside the channels' buffers.
  // Contents are scratch between uses (every use zeroes or fully overwrites
  // what it reads); EndFit releases the buffers.
  struct StepWorkspace {
    std::vector<Triplet> triplets;  // the batch, drawn before propagation
    nn::BatchRows rows;             // its users and items
    std::vector<SampleRec> recs;
    Matrix gbuf_ir, gbuf_tg;  // rows 3j..3j+2: sample j's user/pos/neg grads
    Matrix grad_tags;
  };

  TaxoRecOptions options_;

  // Dataset views (owned copies so the model is self-contained after Fit).
  CsrMatrix train_;
  CsrMatrix item_tags_;
  CsrMatrix tag_items_;
  size_t num_users_ = 0, num_items_ = 0, num_tags_ = 0;
  std::vector<double> alpha_;

  // Parameters (leaves; a Lorentz row has its time coordinate first).
  Matrix users_ir_, items_ir_;  // tag-irrelevant
  Matrix users_tg_;             // tag-relevant user embeddings
  Matrix tags_;                 // T^P (Poincaré, Dt) or Euclidean tag table

  // Layers. Both channels propagate over gcn_.
  std::unique_ptr<nn::BipartiteGcn> gcn_;
  nn::GcnChannel ir_{options_.hyperbolic}, tg_{options_.hyperbolic};
  std::unique_ptr<nn::TagAggregation> tag_agg_;
  std::unique_ptr<Taxonomy> taxonomy_;

  // Triplet source over the owned training matrix; created by InitFromSplit
  // so FitEpoch works both after BeginFit and after RestoreCheckpoint.
  std::unique_ptr<TripletSampler> sampler_;

  // Forward caches of the local aggregation (the channels keep theirs).
  nn::TagAggContext tag_ctx_;
  Matrix items_tg_leaf_;  // v^tg' before global aggregation

  StepWorkspace ws_;
};

}  // namespace taxorec

#endif  // TAXOREC_CORE_TAXOREC_MODEL_H_
