#include "core/taxorec_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>
#include <utility>

#include <chrono>

#include "baselines/embedding_model.h"
#include "common/check.h"
#include "common/fault_injection.h"
#include "common/health.h"
#include "common/heap_stats.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "core/telemetry.h"
#include "data/sampler.h"
#include "hyperbolic/klein.h"
#include "hyperbolic/lorentz.h"
#include "hyperbolic/maps.h"
#include "hyperbolic/poincare.h"
#include "math/vec_ops.h"
#include "nn/losses.h"
#include "optim/rsgd.h"

namespace taxorec {

TaxoRecModel::TaxoRecModel(const ModelConfig& config, TaxoRecOptions options)
    : Recommender(config), options_(std::move(options)) {
  // The tag channel's width comes out of dim; check before subtracting.
  TAXOREC_CHECK(config.dim > config.tag_dim);
  TAXOREC_CHECK(config.dim - config.tag_dim >= kTaxoRecMinItemDim);
}

void TaxoRecModel::ComputeAlpha(const DataSplit& split) {
  // Eq. 16: alpha_u = sum_{v in V_u} |T_v| / (|V_u| * |union T_v|).
  alpha_.assign(num_users_, 0.0);
  for (uint32_t u = 0; u < num_users_; ++u) {
    const auto items = split.train.RowCols(u);
    if (items.empty()) continue;
    size_t tag_slots = 0;
    std::unordered_set<uint32_t> distinct;
    for (uint32_t v : items) {
      const auto tags = item_tags_.RowCols(v);
      tag_slots += tags.size();
      distinct.insert(tags.begin(), tags.end());
    }
    if (distinct.empty()) continue;
    alpha_[u] = static_cast<double>(tag_slots) /
                (static_cast<double>(items.size()) *
                 static_cast<double>(distinct.size()));
    // Channel rebalancing (see ModelConfig::alpha_scale).
    alpha_[u] *= std::max(1.0, config().alpha_scale);
    if (alpha_[u] > 1.0) alpha_[u] = 1.0;
  }
}

double TagWarmUpStep(Matrix* tags, uint32_t t1, uint32_t t2, uint32_t t3,
                     double margin, double lr, double grad_clip,
                     std::span<double> scratch) {
  const size_t dt = tags->cols();
  TAXOREC_DCHECK(scratch.size() == 3 * dt);
  const vec::Span r1 = tags->row(t1);
  const vec::Span r2 = tags->row(t2);
  const vec::Span r3 = tags->row(t3);
  // The hinge's five reductions in one pass, each summed in index order as
  // vec::SqNorm and vec::SqDist sum, so the sums run side by side and keep
  // their bits.
  double sq1 = 0.0, sq2 = 0.0, sq3 = 0.0, dist_pos = 0.0, dist_neg = 0.0;
  for (size_t i = 0; i < dt; ++i) {
    sq1 += r1[i] * r1[i];
    sq2 += r2[i] * r2[i];
    sq3 += r3[i] * r3[i];
    const double dp = r1[i] - r2[i];
    dist_pos += dp * dp;
    const double dq = r1[i] - r3[i];
    dist_neg += dq * dq;
  }
  const poincare::PairTerms pos(sq1, sq2, dist_pos);
  const poincare::PairTerms neg(sq1, sq3, dist_neg);
  double dpos, dneg;
  const double hinge = nn::HingeTriplet(margin, pos.Distance(),
                                        neg.Distance(), &dpos, &dneg);
  if (hinge <= 0.0) return hinge;
  double dot_pos = 0.0, dot_neg = 0.0;  // as vec::Dot sums
  for (size_t i = 0; i < dt; ++i) {
    dot_pos += r1[i] * r2[i];
    dot_neg += r1[i] * r3[i];
  }
  const vec::Span g1 = scratch.subspan(0, dt);
  const vec::Span g2 = scratch.subspan(dt, dt);
  const vec::Span g3 = scratch.subspan(2 * dt, dt);
  vec::Zero(g1);
  vec::Zero(g2);
  vec::Zero(g3);
  pos.AddGradX(r1, r2, dot_pos, dpos, g1);
  pos.AddGradY(r1, r2, dot_pos, dpos, g2);
  neg.AddGradX(r1, r3, dot_neg, dneg, g1);
  neg.AddGradY(r1, r3, dot_neg, dneg, g3);
  if (grad_clip > 0.0) {
    vec::ClipNorm(g1, grad_clip);
    vec::ClipNorm(g2, grad_clip);
    vec::ClipNorm(g3, grad_clip);
  }
  poincare::RsgdStep(r1, g1, lr);
  poincare::RsgdStep(r2, g2, lr);
  poincare::RsgdStep(r3, g3, lr);
  return hinge;
}

void TaxoRecModel::WarmUpTags(Rng* rng) {
  const size_t steps =
      static_cast<size_t>(std::max(0, config().tag_warmup_per_tag)) *
      num_tags_;
  if (steps == 0) return;
  TraceSpan span("tag_warmup");
  const double kWarmupMargin = 0.5;
  std::vector<double> scratch(3 * tags_.cols());
  for (size_t step = 0; step < steps; ++step) {
    const uint32_t v = static_cast<uint32_t>(rng->Uniform(num_items_));
    const auto tags = item_tags_.RowCols(v);
    if (tags.size() < 2) continue;
    const uint32_t t1 = tags[rng->Uniform(tags.size())];
    const uint32_t t2 = tags[rng->Uniform(tags.size())];
    if (t1 == t2) continue;
    uint32_t t3 = static_cast<uint32_t>(rng->Uniform(num_tags_));
    for (int tries = 0; tries < 16 && item_tags_.Contains(v, t3); ++tries) {
      t3 = static_cast<uint32_t>(rng->Uniform(num_tags_));
    }
    TagWarmUpStep(&tags_, t1, t2, t3, kWarmupMargin, config().lr,
                  config().grad_clip, scratch);
  }
}

void TaxoRecModel::InitUserTagEmbeddings() {
  // Data-driven start for the tag channel: each user's u^tg' is the
  // Einstein midpoint (in Klein coordinates) of the warmed-up embeddings of
  // the tags on their training items, weighted by co-occurrence counts —
  // the user-side analogue of the item local aggregation (Eq. 10).
  const size_t dt = tags_.cols();
  Matrix tags_klein(num_tags_, dt);
  for (size_t t = 0; t < num_tags_; ++t) {
    hyper::PoincareToKlein(tags_.row(t), tags_klein.row(t));
  }
  std::vector<double> weights(num_tags_, 0.0);
  std::vector<uint32_t> idx;
  std::vector<double> w;
  std::vector<double> mid(dt);
  for (uint32_t u = 0; u < num_users_; ++u) {
    std::fill(weights.begin(), weights.end(), 0.0);
    bool any = false;
    for (uint32_t v : train_.RowCols(u)) {
      for (uint32_t t : item_tags_.RowCols(v)) {
        weights[t] += 1.0;
        any = true;
      }
    }
    if (!any) continue;
    idx.clear();
    w.clear();
    for (uint32_t t = 0; t < num_tags_; ++t) {
      if (weights[t] > 0.0) {
        idx.push_back(t);
        w.push_back(weights[t]);
      }
    }
    klein::EinsteinMidpoint(tags_klein, idx, w, vec::Span(mid));
    hyper::KleinToLorentz(mid, users_tg_.row(u));
  }
}

void TaxoRecModel::RebuildTaxonomy(int epoch) {
  static const int kHeapTag = RegisterHeapSubsystem("taxonomy");
  HeapScope heap_scope(kHeapTag);
  TraceSpan span("taxonomy_rebuild");
  const auto start = std::chrono::steady_clock::now();
  if (options_.fixed_taxonomy != nullptr) {
    taxonomy_ = std::make_unique<Taxonomy>(*options_.fixed_taxonomy);
  } else {
    TaxonomyBuildConfig cfg;
    cfg.K = config().taxo_k;
    cfg.delta = config().taxo_delta;
    cfg.seed = config().seed + 1;
    taxonomy_ = std::make_unique<Taxonomy>(
        BuildTaxonomy(tags_, item_tags_, tag_items_, cfg));
  }
  static Counter* rebuilds = MetricsRegistry::Instance().GetCounter(
      "taxorec.model.taxonomy_rebuilds");
  rebuilds->Increment();
  if (telemetry() != nullptr) {
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    telemetry()->EmitTaxonomyRebuild(epoch, taxonomy_->num_nodes(),
                                     static_cast<size_t>(
                                         taxonomy_->MaxDepth()),
                                     num_tags_, wall);
  }
}

void TaxoRecModel::Propagate(const nn::BatchRows* rows) {
  // Local aggregation: item tag-relevant leaves from the tag table. The
  // first GCN layer reads every item's leaf.
  {
    TraceSpan span("tag_agg_fwd");
    if (options_.hyperbolic) {
      tag_agg_->Forward(tags_, &tag_ctx_, &items_tg_leaf_);
    } else {
      RowMeans(item_tags_, tags_, &items_tg_leaf_);
    }
  }
  // Global aggregation on both channels.
  ir_.Forward(*gcn_, users_ir_, items_ir_, rows);
  tg_.Forward(*gcn_, users_tg_, items_tg_leaf_, rows);
}

double TaxoRecModel::TrainStep(const TripletSampler& sampler, int epoch,
                               size_t batch_index) {
  // Summed (not averaged) batch gradients, matching per-triplet SGD scale.
  const double scale = 1.0;
  const size_t batch = config().batch_size;
  std::vector<Triplet>& triplets = ws_.triplets;
  std::vector<SampleRec>& recs = ws_.recs;
  Matrix& gbuf_ir = ws_.gbuf_ir;
  Matrix& gbuf_tg = ws_.gbuf_tg;

  // Phase 0 — the draw, before the forward pass, which then computes the
  // channels' outputs only at the batch's rows. Each sample's triplet
  // consumes a counter-based stream derived from (seed, epoch,
  // sample_index), so the batch is a pure function of the seed, not of the
  // thread count.
  {
    TraceSpan span("triplet_fanout");
    triplets.resize(batch);
    ParallelFor(0, batch, /*grain=*/32, [&](size_t j0, size_t j1) {
      for (size_t j = j0; j < j1; ++j) {
        Rng stream = Rng::Derive(config().seed, static_cast<uint64_t>(epoch),
                                 batch_index * batch + j);
        triplets[j] = sampler.Sample(&stream);
      }
    });
    ws_.rows.Assign(triplets);
  }
  Propagate(&ws_.rows);

  // Phase 1 — per-sample fan-out. Each sample's gradients land in
  // sample-owned rows of a scratch buffer, so this phase reads the (frozen)
  // propagated embeddings and writes disjoint memory.
  {
    TraceSpan span("triplet_fanout");
    recs.assign(batch, SampleRec{});
    gbuf_ir.EnsureShape(batch * 3, users_ir_.cols());
    gbuf_tg.EnsureShape(batch * 3, users_tg_.cols());
    // Zeroes sample j's three gradient rows before they accumulate.
    auto zero_rows = [](Matrix* gbuf, size_t j) {
      for (size_t r = 3 * j; r < 3 * j + 3; ++r) vec::Zero(gbuf->row(r));
    };
    // Eq. 17's g(u, v) on the propagated channels, as the model scores.
    const ScoringSnapshot rows = scoring_rows();
    ParallelFor(0, batch, /*grain=*/32, [&](size_t j0, size_t j1) {
      for (size_t j = j0; j < j1; ++j) {
        const Triplet& t = triplets[j];
        const double a = alpha_[t.user];
        const double g_pos = rows.PairDistance(t.user, t.pos);
        const double g_neg = rows.PairDistance(t.user, t.neg);
        double dpos, dneg;
        const double hinge =
            nn::HingeTriplet(config().margin, g_pos, g_neg, &dpos, &dneg);
        if (hinge <= 0.0) continue;
        recs[j] = {a, hinge, /*active=*/true};
        zero_rows(&gbuf_ir, j);
        ir_.AddSqDistanceGrad(t.user, t.pos, dpos * scale, gbuf_ir.row(3 * j),
                              gbuf_ir.row(3 * j + 1));
        ir_.AddSqDistanceGrad(t.user, t.neg, dneg * scale, gbuf_ir.row(3 * j),
                              gbuf_ir.row(3 * j + 2));
        if (a > 0.0) {
          zero_rows(&gbuf_tg, j);
          tg_.AddSqDistanceGrad(t.user, t.pos, a * dpos * scale,
                                gbuf_tg.row(3 * j), gbuf_tg.row(3 * j + 1));
          tg_.AddSqDistanceGrad(t.user, t.neg, a * dneg * scale,
                                gbuf_tg.row(3 * j), gbuf_tg.row(3 * j + 2));
        }
      }
    });
  }

  // Phase 2 — ordered reduction. Per-sample gradients are folded into the
  // dense update matrices in ascending sample order on this thread, so the
  // summation order (and every optimizer step below) is independent of the
  // thread count. The sums land in each channel's grad_u/grad_v, which are
  // zero off the batch's rows, as the channels' Backward requires.
  double batch_loss = 0.0;
  {
    TraceSpan span("grad_reduce");
    ir_.ZeroGrads();
    tg_.ZeroGrads();
    for (size_t j = 0; j < batch; ++j) {
      const SampleRec& rec = recs[j];
      if (!rec.active) continue;
      const Triplet& t = triplets[j];
      batch_loss += rec.loss;
      vec::Axpy(1.0, gbuf_ir.row(3 * j), ir_.grad_u().row(t.user));
      vec::Axpy(1.0, gbuf_ir.row(3 * j + 1), ir_.grad_v().row(t.pos));
      vec::Axpy(1.0, gbuf_ir.row(3 * j + 2), ir_.grad_v().row(t.neg));
      if (rec.a > 0.0) {
        vec::Axpy(1.0, gbuf_tg.row(3 * j), tg_.grad_u().row(t.user));
        vec::Axpy(1.0, gbuf_tg.row(3 * j + 1), tg_.grad_v().row(t.pos));
        vec::Axpy(1.0, gbuf_tg.row(3 * j + 2), tg_.grad_v().row(t.neg));
      }
    }
  }

  // Deterministic fault site: poisons one accumulated gradient value so the
  // rollback/retry machinery of the training loop can be exercised by real
  // tests. It sits on the batch's first user, a row the backward pass
  // reads. A single relaxed atomic load when disarmed.
  if (TAXOREC_FAULT(faults::kGradNan, epoch)) {
    ir_.grad_u().at(triplets[0].user, 0) =
        std::numeric_limits<double>::quiet_NaN();
  }

  ir_.Backward(*gcn_, users_ir_, items_ir_);
  ir_.Step(&users_ir_, ir_.grad_u(), config().lr, config().grad_clip);
  ir_.Step(&items_ir_, ir_.grad_v(), config().lr, config().grad_clip);

  const double tag_lr = config().lr * std::max(1.0, config().tag_lr_mult);
  tg_.Backward(*gcn_, users_tg_, items_tg_leaf_);
  tg_.Step(&users_tg_, tg_.grad_u(), tag_lr, config().grad_clip);
  // Local aggregation backward (item tag-leaf grads → tags), tag step.
  Matrix& grad_tags = ws_.grad_tags;
  {
    TraceSpan span("tag_agg_bwd");
    grad_tags.EnsureShape(num_tags_, tags_.cols());
    grad_tags.SetZero();
    if (options_.hyperbolic) {
      tag_agg_->Backward(tags_, tag_ctx_, tg_.grad_v(), &grad_tags);
    } else {
      RowMeansBackward(item_tags_, tg_.grad_v(), &grad_tags);
    }
  }
  if (!options_.hyperbolic) {
    // The Euclidean tag table is the mean's operand, a channel leaf.
    tg_.Step(&tags_, grad_tags, tag_lr, config().grad_clip);
    return batch_loss;
  }
  // Taxonomy-aware regularization (Eq. 8), hyperbolic mode only. The
  // per-call scale normalizes by the tag count so λ is comparable across
  // datasets.
  if (options_.lambda > 0.0 && taxonomy_ != nullptr) {
    TraceSpan span("taxo_reg");
    TaxonomyRegLossAndGrad(*taxonomy_, tags_,
                           options_.lambda / static_cast<double>(num_tags_),
                           &grad_tags, options_.reg);
  }
  TraceSpan span("rsgd");
  optim::PoincareRsgdUpdate(&tags_, grad_tags, tag_lr, config().grad_clip);
  return batch_loss;
}

void TaxoRecModel::InitFromSplit(const DataSplit& split, Rng* rng,
                                 bool init_params) {
  num_users_ = split.num_users;
  num_items_ = split.num_items;
  num_tags_ = split.num_tags;
  train_ = split.train;
  item_tags_ = split.item_tags;
  tag_items_ = item_tags_.Transposed();
  ComputeAlpha(split);
  // Over the owned copy (identical content to split.train) so the model
  // can keep training after a checkpoint restore.
  sampler_ = std::make_unique<TripletSampler>(&train_, config().neg_sampling);

  const bool hyp = options_.hyperbolic;
  users_ir_ = Matrix(num_users_, ir_.cols(config().dim - config().tag_dim));
  items_ir_ = Matrix(num_items_, users_ir_.cols());
  users_tg_ = Matrix(num_users_, tg_.cols(config().tag_dim));
  tags_ = Matrix(num_tags_, config().tag_dim);
  if (hyp) tag_agg_ = std::make_unique<nn::TagAggregation>(&item_tags_);
  gcn_ = std::make_unique<nn::BipartiteGcn>(split.train, config().gcn_layers);
  if (!init_params) return;
  TAXOREC_CHECK(rng != nullptr);
  ir_.InitLeaves(rng, &users_ir_);
  ir_.InitLeaves(rng, &items_ir_);
  tg_.InitLeaves(rng, &users_tg_);
  if (hyp) {
    for (size_t t = 0; t < num_tags_; ++t) {
      poincare::RandomPoint(rng, 0.5, tags_.row(t));
    }
  } else {
    tags_.FillGaussian(rng, 0.1);
  }
}

void TaxoRecModel::BeginFit(const DataSplit& split, Rng* rng) {
  InitFromSplit(split, rng, /*init_params=*/true);
  if (options_.hyperbolic) {
    WarmUpTags(rng);
    InitUserTagEmbeddings();
    RebuildTaxonomy(/*epoch=*/0);
  }
}

double TaxoRecModel::FitEpoch(const DataSplit& split, int epoch, Rng* rng) {
  // The minibatch loop draws every triplet from a counter-based stream
  // (Rng::Derive(seed, epoch, sample_index) inside TrainStep), not from
  // `rng`, so the sampled triples — and the trained model — are identical
  // at any --threads value, and a run resumed at epoch k replays exactly
  // the updates of the uninterrupted run. Each step propagates only the
  // output rows its batch reads, so until EndFit the channels' outputs are
  // current only at the last batch's rows.
  TraceSpan span("fit_epoch");
  if (options_.hyperbolic && epoch > 0 &&
      epoch % std::max(1, config().taxo_rebuild_every) == 0) {
    RebuildTaxonomy(epoch);
  }
  double epoch_loss = 0.0;
  for (size_t b = 0; b < config().batches_per_epoch; ++b) {
    epoch_loss += TrainStep(*sampler_, epoch, b);
  }
  static Counter* samples =
      MetricsRegistry::Instance().GetCounter("taxorec.model.fit_samples");
  samples->Increment(config().batches_per_epoch * config().batch_size);
  return epoch_loss;
}

void TaxoRecModel::EndFit(const DataSplit& split) {
  if (options_.hyperbolic) RebuildTaxonomy(config().epochs);
  Propagate();
  ws_ = StepWorkspace();  // scoring and serving need the outputs alone
  ir_.ReleaseStepBuffers();
  tg_.ReleaseStepBuffers();
}

void TaxoRecModel::CheckHealth(HealthMonitor* monitor) const {
  if (options_.hyperbolic) {
    monitor->CheckLorentzRows("users_ir", users_ir_);
    monitor->CheckLorentzRows("items_ir", items_ir_);
    monitor->CheckLorentzRows("users_tg", users_tg_);
    monitor->CheckBallRows("tags", tags_);
  } else {
    monitor->CheckFinite("users_ir", users_ir_);
    monitor->CheckFinite("items_ir", items_ir_);
    monitor->CheckFinite("users_tg", users_tg_);
    monitor->CheckFinite("tags", tags_);
  }
}

Checkpoint TaxoRecModel::SaveCheckpoint() const {
  Checkpoint ckpt;
  ckpt.Put("users_ir", users_ir_);
  ckpt.Put("items_ir", items_ir_);
  ckpt.Put("users_tg", users_tg_);
  ckpt.Put("tags", tags_);
  return ckpt;
}

Status TaxoRecModel::RestoreCheckpoint(const Checkpoint& ckpt,
                                       const DataSplit& split) {
  InitFromSplit(split, /*rng=*/nullptr, /*init_params=*/false);
  auto load = [&](const char* name, Matrix* dst) -> Status {
    const Matrix* src = ckpt.Get(name);
    if (src == nullptr) {
      return Status::NotFound(std::string("missing checkpoint entry: ") +
                              name);
    }
    if (src->rows() != dst->rows() || src->cols() != dst->cols()) {
      return Status::InvalidArgument(
          std::string("checkpoint shape mismatch for ") + name);
    }
    *dst = *src;
    return Status::OK();
  };
  TAXOREC_RETURN_NOT_OK(load("users_ir", &users_ir_));
  TAXOREC_RETURN_NOT_OK(load("items_ir", &items_ir_));
  TAXOREC_RETURN_NOT_OK(load("users_tg", &users_tg_));
  TAXOREC_RETURN_NOT_OK(load("tags", &tags_));
  if (options_.hyperbolic) RebuildTaxonomy(/*epoch=*/-1);
  Propagate();
  return Status::OK();
}

std::vector<double> TaxoRecModel::UserTagDistances(uint32_t user) const {
  std::vector<double> dist(num_tags_, 0.0);
  const auto u = tg_.out_u().row(user);
  if (options_.hyperbolic) {
    std::vector<double> lorentz_tag(tags_.cols() + 1);
    for (size_t t = 0; t < num_tags_; ++t) {
      hyper::PoincareToLorentz(tags_.row(t), vec::Span(lorentz_tag));
      dist[t] = lorentz::Distance(u, vec::ConstSpan(lorentz_tag));
    }
  } else {
    for (size_t t = 0; t < num_tags_; ++t) {
      dist[t] = std::sqrt(vec::SqDist(u, tags_.row(t)));
    }
  }
  return dist;
}

}  // namespace taxorec
