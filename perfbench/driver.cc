// End-to-end benchmark driver (README.md): one process runs one workload
// through the public pipeline
//   GenerateSynthetic → TemporalSplit → TaxoRecModel::BeginFit →
//   FitEpoch×N → EndFit → EvaluateRanking → BatchServer (freeze) →
//   closed-loop ServeBatchEx
// and prints one JSON object as its last stdout line.
//
//   perfbench_driver --workload fit-graph --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 arms the span
// profiler, replays one training step's layer calls on the trained shapes
// and reports the per-layer metrics. Every time is taken over many short
// units, each between two calibration loops (harness.h).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "block_eval.h"
#include "common/checkpoint.h"
#include "common/health.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/profiler.h"
#include "common/trace.h"
#include "core/taxorec_model.h"
#include "data/sampler.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/recommend.h"
#include "harness.h"
#include "hyperbolic/lorentz.h"
#include "nn/gcn.h"
#include "nn/lorentz_layers.h"
#include "nn/midpoint.h"
#include "optim/rsgd.h"
#include "serve/server.h"
#include "serve/topk.h"
#include "taxonomy/regularizer.h"

namespace perfbench {
namespace {

using taxorec::Matrix;

struct Workload {
  const char* name;
  size_t users, items, tags;
  int rebuild_every;          // epochs between taxonomy rebuilds
  size_t batches_per_epoch;   // one epoch is one fit unit
  int epochs;                 // fixed, so quality is a function of the seed
  int setup_reps;             // fresh-state repeats of the set-up phase
  size_t eval_block;          // users per eval unit
};

// Shapes and why each was chosen: README.md, "Workloads".
constexpr Workload kWorkloads[] = {
    {"fit-graph", 6000, 9000, 60, 5, 3, 12, 5, 200},
    {"fit-taxonomy", 800, 3000, 2000, 1, 15, 12, 5, 200},
    {"rank-serve", 2000, 20000, 120, 5, 2, 24, 5, 64},
};

/// Seed of every workload's catalogue structure (taxonomy tree, item
/// popularity, user interests); --seed relabels users and items and drives
/// training, sampling and the request stream (README.md, "Inputs").
constexpr uint64_t kCatalogueSeed = 42;
constexpr int kTopK = 20;
constexpr size_t kServeBatch = 32;
constexpr size_t kServeWindow = 4;        // batches per serve unit
constexpr size_t kMinServeBatches = 200;  // p95 with >= 10 samples beyond
constexpr size_t kPipelineServeBatches = 200;
constexpr size_t kCheckedUsers = 16;

/// Pinned copy of the paper-default TaxoRec settings (ConfigFor("TaxoRec")
/// in bench/bench_common.h), so a harness edit cannot move the benchmark.
taxorec::ModelConfig PinnedConfig(const Workload& w, uint64_t seed) {
  taxorec::ModelConfig cfg;
  cfg.seed = seed;
  cfg.dim = 64;
  cfg.tag_dim = 12;
  cfg.epochs = w.epochs;
  cfg.batches_per_epoch = w.batches_per_epoch;
  cfg.batch_size = 512;
  cfg.lr = 0.05;
  cfg.margin = 3.0;
  cfg.gcn_layers = 3;
  cfg.reg_lambda = 0.1;
  cfg.taxo_k = 3;
  cfg.taxo_delta = 0.5;
  cfg.taxo_rebuild_every = w.rebuild_every;
  return cfg;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool list = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      a->list = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a->trace = v != "0";
    } else {
      return false;
    }
  }
  return a->list || (!a->workload.empty() && a->seconds > 0.0);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Declared metric sets; BENCHMARK.json lists the same names and units
// (test_perfbench.py checks both directions).
const std::vector<std::pair<const char*, const char*>>& EndToEndMetrics() {
  static const std::vector<std::pair<const char*, const char*>> m = {
      {"pipeline_s", "s"},          {"setup_s", "s"},
      {"fit_samples_per_s", "1/s"}, {"eval_users_per_s", "1/s"},
      {"serve_qps", "1/s"},         {"serve_latency_ms_p50", "ms"},
      {"serve_latency_ms_p95", "ms"}, {"peak_rss_mb", "MiB"},
      {"ok_ratio", "ratio"},
  };
  return m;
}

const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> m = {
      {"nn.gcn_fwd_ms", "ms"},
      {"nn.gcn_bwd_ms", "ms"},
      {"nn.logmap_ms", "ms"},
      {"nn.expmap_ms", "ms"},
      {"math.spmm_ms", "ms"},
      {"math.spmm_rows", "count"},
      {"optim.lorentz_rsgd_ms", "ms"},
      {"core.step_ms", "ms"},
      {"core.step_unattributed_ms", "ms"},
      {"core.active_triplet_ratio", "ratio"},
      {"taxonomy.warmup_ms", "ms"},
      {"taxonomy.build_ms", "ms"},
      {"taxonomy.kmeans_iterations", "count"},
      {"taxonomy.reg_ms", "ms"},
      {"taxonomy.fit_share", "ratio"},
      {"nn.tag_agg_fwd_ms", "ms"},
      {"nn.tag_agg_bwd_ms", "ms"},
      {"optim.poincare_rsgd_ms", "ms"},
      {"data.split_ms", "ms"},
      {"data.sample_batch_ms", "ms"},
      {"eval.score_ms_per_user", "ms"},
      {"eval.rank_ms_per_user", "ms"},
      {"serve.topk_ms_per_user", "ms"},
      {"serve.batch_overhead_ms", "ms"},
      {"serve.freeze_ms", "ms"},
      {"serve.latency_samples", "count"},
      {"quality.recall_at_20", "ratio"},
      {"quality.ndcg_at_20", "ratio"},
      {"phase.setup_s", "s"},
      {"phase.fit_s", "s"},
      {"phase.eval_s", "s"},
      {"phase.freeze_s", "s"},
      {"phase.serve_s", "s"},
      {"calib_ms", "ms"},
      {"trace_overhead_ratio", "ratio"},
      {"raw.pipeline_s", "s"},
      {"raw.setup_s", "s"},
      {"raw.fit_samples_per_s", "1/s"},
      {"raw.eval_users_per_s", "1/s"},
      {"raw.serve_qps", "1/s"},
      {"raw.serve_latency_ms_p50", "ms"},
      {"raw.serve_latency_ms_p95", "ms"},
      {"taxorec.spmm.calls", "count"},
      {"taxorec.kmeans.calls", "count"},
      {"taxorec.kmeans.iterations", "count"},
      {"taxorec.serve.requests", "count"},
      {"taxorec.serve.batches", "count"},
  };
  return m;
}

uint64_t CounterValue(const char* name) {
  return taxorec::MetricsRegistry::Instance().GetCounter(name)->value();
}

/// Sum of inclusive time (us) and calls over every profile node named
/// `site`, anywhere in the merged tree.
struct SiteTotal {
  double ms = 0.0;
  uint64_t calls = 0;
};
void AddSite(const taxorec::ProfileNode& n, const std::string& site,
             SiteTotal* t) {
  if (n.name == site) {
    t->ms += static_cast<double>(n.inclusive_us) / 1000.0;
    t->calls += n.calls;
  }
  for (const auto& c : n.children) AddSite(c, site, t);
}
SiteTotal ProfileSite(const std::string& site) {
  SiteTotal t;
  AddSite(taxorec::MergedProfile(), site, &t);
  return t;
}

/// Median per-layer times (ms) of one replayed training step.
struct StepReplay {
  double tag_agg_fwd = 0, tag_agg_bwd = 0, logmap = 0, expmap = 0;
  double gcn_fwd = 0, gcn_bwd = 0, sample = 0;
  double lorentz_rsgd = 0, reg = 0, poincare_rsgd = 0;
  double active_ratio = 0;
  double LayerSum() const {
    return tag_agg_fwd + tag_agg_bwd + logmap + expmap + gcn_fwd + gcn_bwd +
           lorentz_rsgd + reg + poincare_rsgd;
  }
  double TaxonomySum() const {
    return tag_agg_fwd + tag_agg_bwd + reg + poincare_rsgd;
  }
};

class BenchRun {
 public:
  BenchRun(const Workload& w, const Args& args)
      : w_(w),
        args_(args),
        cfg_(PinnedConfig(w, args.seed)) {}

  int Main();
  /// Prints the result line; false when the metric set is not the declared
  /// one (a harness bug: no result is printed).
  bool Emit() const;

 private:
  void Check(bool ok, const char* what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what);
    }
  }
  double Remaining(Clock::time_point t0, double budget_s) const {
    return budget_s - MsSince(t0) / 1000.0;
  }
  std::unique_ptr<taxorec::TaxoRecModel> NewModel() const {
    taxorec::TaxoRecOptions opts;
    opts.lambda = cfg_.reg_lambda;
    return std::make_unique<taxorec::TaxoRecModel>(cfg_, opts);
  }

  void Setup();
  void Fit();
  void Evaluate(double budget_s);
  void Freeze();
  void Serve(double budget_s);
  void CheckServedLists();
  StepReplay ReplayStep();
  void ReplayEvalAndServe();
  void Report();

  const Workload& w_;
  const Args& args_;
  taxorec::ModelConfig cfg_;
  Calibrator calib_;

  taxorec::Dataset data_;
  std::unique_ptr<taxorec::DataSplit> split_;
  std::unique_ptr<taxorec::TaxoRecModel> model_;
  std::unique_ptr<taxorec::BatchServer> server_;

  Series setup_, epoch_, epoch_armed_, endfit_, eval_block_, freeze_,
      serve_window_;
  std::vector<double> split_ms_;  // raw, inside each set-up unit
  std::vector<double> eval_rates_raw_, eval_rates_cal_;
  std::vector<double> batch_raw_ms_, batch_cal_ms_;
  // Traced run, calibrated: armed epoch minus its rebuilds, per step; and
  // the rebuilds inside armed epochs.
  std::vector<double> step_ms_;
  double fit_rebuild_ms_ = 0.0;
  double warmup_ms_ = 0.0, build_ms_ = 0.0;
  double spmm_ms_per_step_ = 0.0, spmm_rows_per_step_ = 0.0;
  double kmeans_iters_per_build_ = 0.0;
  double recall_ = 0.0, ndcg_ = 0.0;
  size_t eval_users_ = 0;
  uint64_t attempted_ = 0, failed_ = 0;
  std::vector<Metric> replay_metrics_;
  std::vector<Metric> metrics_;
};

void BenchRun::Setup() {
  // Fresh state every repeat: split, model construction and BeginFit (tag
  // warm-up + first taxonomy build). The last repeat's state is kept.
  const SiteTotal warm0 = ProfileSite("tag_warmup");
  const SiteTotal build0 = ProfileSite("taxonomy_rebuild");
  for (int r = 0; r < w_.setup_reps; ++r) {
    model_.reset();
    split_.reset();
    TimeUnit(&calib_, &setup_, [&] {
      taxorec::TraceSpan span("pb.setup");
      const auto t0 = Clock::now();
      {
        taxorec::TraceSpan s("pb.split");
        split_ = std::make_unique<taxorec::DataSplit>(
            taxorec::TemporalSplit(data_));
      }
      split_ms_.push_back(MsSince(t0));
      taxorec::TraceSpan s("pb.begin_fit");
      model_ = NewModel();
      taxorec::Rng rng(args_.seed);
      model_->BeginFit(*split_, &rng);
    });
  }
  if (args_.trace) {
    // Span times are raw; scale them like the set-up units they ran in.
    std::vector<double> f;
    for (size_t i = 0; i < setup_.size(); ++i) {
      f.push_back(setup_.cal_ms[i] / setup_.raw_ms[i]);
    }
    const SiteTotal warm1 = ProfileSite("tag_warmup");
    const SiteTotal build1 = ProfileSite("taxonomy_rebuild");
    warmup_ms_ = Median(f) * (warm1.ms - warm0.ms) / w_.setup_reps;
    build_ms_ = Median(f) * (build1.ms - build0.ms) /
                static_cast<double>(std::max<uint64_t>(1, build1.calls -
                                                              build0.calls));
  }
}

void BenchRun::Fit() {
  const uint64_t rows0 = CounterValue("taxorec.spmm.rows");
  const uint64_t iters0 = CounterValue("taxorec.kmeans.iterations");
  const uint64_t kcalls0 = CounterValue("taxorec.model.taxonomy_rebuilds");
  double spmm_armed_ms = 0.0;
  size_t armed_steps = 0;
  taxorec::Rng rng(args_.seed);
  for (int e = 0; e < cfg_.epochs; ++e) {
    // The traced run profiles every other epoch; the unprofiled ones give
    // the tracing overhead ratio.
    const bool armed = args_.trace && e % 2 == 1;
    if (args_.trace && !armed) taxorec::StopProfiling();
    const SiteTotal spmm0 = ProfileSite("spmm");
    const SiteTotal rb0 = ProfileSite("taxonomy_rebuild");
    const double raw = TimeUnit(&calib_, armed ? &epoch_armed_ : &epoch_, [&] {
      taxorec::TraceSpan span("pb.fit_epoch");
      model_->FitEpoch(*split_, e, &rng);
    });
    if (args_.trace) taxorec::StartProfiling();
    if (armed) {
      const double f = epoch_armed_.cal_ms.back() / raw;
      const double rebuild = f * (ProfileSite("taxonomy_rebuild").ms - rb0.ms);
      fit_rebuild_ms_ += rebuild;
      step_ms_.push_back((f * raw - rebuild) / w_.batches_per_epoch);
      spmm_armed_ms += f * (ProfileSite("spmm").ms - spmm0.ms);
      armed_steps += w_.batches_per_epoch;
    }
  }
  // EndFit is idempotent (rebuild from the same tag table, then the same
  // forward pass), so it is repeated for a median like set-up.
  for (int r = 0; r < w_.setup_reps; ++r) {
    TimeUnit(&calib_, &endfit_, [&] {
      taxorec::TraceSpan span("pb.end_fit");
      model_->EndFit(*split_);
    });
  }
  const double steps =
      static_cast<double>(cfg_.epochs) * w_.batches_per_epoch;
  spmm_rows_per_step_ =
      static_cast<double>(CounterValue("taxorec.spmm.rows") - rows0) /
      (steps + w_.setup_reps);  // EndFit's forward pass counts as one step
  const uint64_t builds =
      CounterValue("taxorec.model.taxonomy_rebuilds") - kcalls0;
  kmeans_iters_per_build_ =
      static_cast<double>(CounterValue("taxorec.kmeans.iterations") - iters0) /
      static_cast<double>(std::max<uint64_t>(1, builds));
  if (armed_steps > 0) spmm_ms_per_step_ = spmm_armed_ms / armed_steps;

  taxorec::HealthMonitor monitor;
  model_->CheckHealth(&monitor);
  Check(monitor.healthy(), "CheckHealth reports the trained model healthy");
}

void BenchRun::Evaluate(double budget_s) {
  BlockEvaluator eval(*split_, w_.eval_block, kTopK);
  const auto t0 = Clock::now();
  size_t b = 0;
  // One full pass in ascending blocks (the quality metrics), then more
  // passes while the budget lasts (timing samples only).
  while (!eval.complete() || Remaining(t0, budget_s) > 0.0) {
    size_t users = 0;
    const double raw = TimeUnit(&calib_, &eval_block_, [&] {
      taxorec::TraceSpan span("pb.eval_block");
      users = eval.EvalBlock(*model_, b);
    });
    if (users > 0) {
      eval_rates_raw_.push_back(users / (raw / 1000.0));
      eval_rates_cal_.push_back(users / (eval_block_.cal_ms.back() / 1000.0));
    }
    b = (b + 1) % eval.num_blocks();
  }
  recall_ = eval.recall();
  ndcg_ = eval.ndcg();
  eval_users_ = eval.num_eval_users();
  Check(eval_users_ > 0, "test split has users to rank");
  Check(std::isfinite(recall_) && recall_ >= 0.0 && recall_ <= 1.0,
        "recall@20 is finite and in [0, 1]");
  Check(std::isfinite(ndcg_) && ndcg_ >= 0.0 && ndcg_ <= 1.0,
        "ndcg@20 is finite and in [0, 1]");
}

void BenchRun::Freeze() {
  for (int r = 0; r < w_.setup_reps; ++r) {
    server_.reset();
    TimeUnit(&calib_, &freeze_, [&] {
      taxorec::TraceSpan span("pb.freeze");
      server_ = std::make_unique<taxorec::BatchServer>(*model_, *split_);
    });
  }
}

void BenchRun::Serve(double budget_s) {
  // Closed loop, one client: the next batch is sent when the previous one
  // returns, so a request's latency is its batch's latency.
  taxorec::Rng rng(args_.seed ^ 0x5e7e5e7eULL);
  std::vector<taxorec::ServeRequest> reqs(kServeBatch);
  const auto t0 = Clock::now();
  std::vector<double> window_ms;
  while (batch_raw_ms_.size() < kMinServeBatches ||
         Remaining(t0, budget_s) > 0.0) {
    window_ms.clear();
    TimeUnit(&calib_, &serve_window_, [&] {
      for (size_t i = 0; i < kServeWindow; ++i) {
        for (auto& r : reqs) {
          r = taxorec::ServeRequest{};
          r.user = static_cast<uint32_t>(rng.Uniform(split_->num_users));
          r.k = kTopK;
        }
        const auto b0 = Clock::now();
        std::vector<taxorec::ServeResult> out;
        {
          taxorec::TraceSpan span("pb.serve_batch");
          out = server_->ServeBatchEx(reqs);
        }
        window_ms.push_back(MsSince(b0));
        for (const auto& res : out) {
          ++attempted_;
          if (res.status != taxorec::ServeStatus::kOk ||
              res.items.size() != static_cast<size_t>(kTopK)) {
            ++failed_;
          }
        }
      }
    });
    // Each batch is scaled by its window's calibration factor.
    const double f = serve_window_.cal_ms.back() / serve_window_.raw_ms.back();
    for (double ms : window_ms) {
      batch_raw_ms_.push_back(ms);
      batch_cal_ms_.push_back(ms * f);
    }
  }
  Check(TailReportable(batch_cal_ms_.size(), 0.95),
        "p95 has at least ten samples beyond it");
  CheckServedLists();
}

void BenchRun::CheckServedLists() {
  // Served lists must equal the reference single-user ranking item for item
  // and score for score.
  taxorec::RecommendOptions ro;
  ro.k = kTopK;
  for (size_t i = 0; i < kCheckedUsers; ++i) {
    const uint32_t u = static_cast<uint32_t>(
        (i * 7919u + args_.seed) % split_->num_users);
    taxorec::ServeRequest req;
    req.user = u;
    req.k = kTopK;
    const auto served = server_->ServeBatchEx({&req, 1});
    const auto ref = taxorec::RecommendTopK(*model_, *split_, u, ro);
    bool same = served.size() == 1 &&
                served[0].status == taxorec::ServeStatus::kOk &&
                served[0].items.size() == ref.size();
    for (size_t j = 0; same && j < ref.size(); ++j) {
      same = served[0].items[j].item == ref[j].item &&
             served[0].items[j].score == ref[j].score;
    }
    Check(same, "served list equals RecommendTopK");
  }
}

StepReplay BenchRun::ReplayStep() {
  // One TrainStep's layer calls on the trained shapes, from the model's own
  // leaves, training matrix, item-tag matrix and taxonomy. Median of a few
  // repeats per layer; every repeat starts from fresh copies of the leaves
  // and is calibrated as one unit. Buffers the
  // model keeps across steps (forward caches and outputs) persist across
  // repeats here too; what TrainStep allocates per step is fresh per repeat.
  constexpr int kReps = 5;
  const taxorec::Checkpoint ckpt = model_->SaveCheckpoint();
  const taxorec::Taxonomy* taxo = model_->taxonomy();
  taxorec::nn::BipartiteGcn gcn(split_->train, cfg_.gcn_layers);
  taxorec::nn::TagAggregation agg(&split_->item_tags);
  taxorec::TripletSampler sampler(&split_->train, cfg_.neg_sampling);
  const size_t nu = split_->num_users, ni = split_->num_items;
  const double tag_lr = cfg_.lr * std::max(1.0, cfg_.tag_lr_mult);
  const size_t batch = cfg_.batch_size;

  std::vector<std::vector<double>> t(10);
  std::vector<taxorec::Triplet> trip0;  // first repeat's batch
  size_t active0 = 0;
  auto timed = [&](int slot, const auto& fn) {
    const auto t0 = Clock::now();
    fn();
    t[slot].push_back(MsSince(t0));
  };
  enum {
    kAggF, kAggB, kLog, kExp, kGcnF, kGcnB, kSample, kLRsgd, kReg, kPRsgd
  };
  struct Channel {
    const Matrix* users = nullptr;
    const Matrix* items = nullptr;
    taxorec::nn::GcnContext gctx;
    Matrix sum_u, sum_v, out_u, out_v;
  };
  Channel ch[2];
  taxorec::nn::TagAggContext tctx;
  Matrix items_tg;

  for (int rep = 0; rep < kReps; ++rep) {
    const double calib_before = calib_.Run();
    taxorec::TraceSpan span("pb.replay_step");
    Matrix users_ir = *ckpt.Get("users_ir");
    Matrix items_ir = *ckpt.Get("items_ir");
    Matrix users_tg = *ckpt.Get("users_tg");
    Matrix tags = *ckpt.Get("tags");
    // Forward: local aggregation, then both channels through log → GCN → exp.
    timed(kAggF, [&] { agg.Forward(tags, &tctx, &items_tg); });
    ch[0].users = &users_ir;
    ch[0].items = &items_ir;
    ch[1].users = &users_tg;
    ch[1].items = &items_tg;
    t[kLog].push_back(0.0);
    t[kExp].push_back(0.0);
    t[kGcnF].push_back(0.0);
    for (Channel& c : ch) {
      Matrix zu, zv;
      auto t0 = Clock::now();
      taxorec::nn::LogMapOriginForward(*c.users, &zu);
      taxorec::nn::LogMapOriginForward(*c.items, &zv);
      t[kLog].back() += MsSince(t0);
      t0 = Clock::now();
      gcn.Forward(zu, zv, &c.gctx, &c.sum_u, &c.sum_v);
      t[kGcnF].back() += MsSince(t0);
      t0 = Clock::now();
      taxorec::nn::ExpMapOriginForward(c.sum_u, &c.out_u);
      taxorec::nn::ExpMapOriginForward(c.sum_v, &c.out_v);
      t[kExp].back() += MsSince(t0);
    }
    // Triplet sampling and the per-sample fan-out into dense upstream
    // gradients (the part of TrainStep no layer call covers).
    std::vector<taxorec::Triplet> trip(batch);
    timed(kSample, [&] {
      for (size_t j = 0; j < batch; ++j) {
        taxorec::Rng stream = taxorec::Rng::Derive(
            cfg_.seed, 1000 + static_cast<uint64_t>(rep), j);
        trip[j] = sampler.Sample(&stream);
      }
    });
    Matrix up_u[2] = {Matrix(nu, users_ir.cols()), Matrix(nu, users_tg.cols())};
    Matrix up_v[2] = {Matrix(ni, items_ir.cols()), Matrix(ni, users_tg.cols())};
    size_t active = 0;
    for (const auto& tr : trip) {
      const double a = model_->alpha(tr.user);
      auto sim = [&](uint32_t v) {
        return taxorec::lorentz::SqDistance(ch[0].out_u.row(tr.user),
                                            ch[0].out_v.row(v)) +
               a * taxorec::lorentz::SqDistance(ch[1].out_u.row(tr.user),
                                                ch[1].out_v.row(v));
      };
      if (cfg_.margin + sim(tr.pos) - sim(tr.neg) <= 0.0) continue;
      ++active;
      for (int c = 0; c < 2; ++c) {
        const double s = c == 0 ? 1.0 : a;
        if (s == 0.0) continue;
        taxorec::lorentz::SqDistanceGrad(ch[c].out_u.row(tr.user),
                                         ch[c].out_v.row(tr.pos), s,
                                         up_u[c].row(tr.user),
                                         up_v[c].row(tr.pos));
        taxorec::lorentz::SqDistanceGrad(ch[c].out_u.row(tr.user),
                                         ch[c].out_v.row(tr.neg), -s,
                                         up_u[c].row(tr.user),
                                         up_v[c].row(tr.neg));
      }
    }
    if (rep == 0) {
      trip0 = trip;
      active0 = active;
    }
    // Backward through both channels, then the optimizer steps.
    Matrix leaf_gu[2], leaf_gv[2];
    double log_b = 0.0, exp_b = 0.0, gcn_b = 0.0;
    for (int c = 0; c < 2; ++c) {
      Matrix gsum_u(nu, up_u[c].cols()), gsum_v(ni, up_v[c].cols());
      auto t0 = Clock::now();
      taxorec::nn::ExpMapOriginBackward(ch[c].sum_u, up_u[c], &gsum_u);
      taxorec::nn::ExpMapOriginBackward(ch[c].sum_v, up_v[c], &gsum_v);
      exp_b += MsSince(t0);
      Matrix gz_u, gz_v;
      t0 = Clock::now();
      gcn.Backward(gsum_u, gsum_v, &gz_u, &gz_v);
      gcn_b += MsSince(t0);
      leaf_gu[c] = Matrix(nu, up_u[c].cols());
      leaf_gv[c] = Matrix(ni, up_v[c].cols());
      t0 = Clock::now();
      taxorec::nn::LogMapOriginBackward(*ch[c].users, gz_u, &leaf_gu[c]);
      taxorec::nn::LogMapOriginBackward(*ch[c].items, gz_v, &leaf_gv[c]);
      log_b += MsSince(t0);
    }
    t[kLog].back() += log_b;
    t[kExp].back() += exp_b;
    t[kGcnB].push_back(gcn_b);
    timed(kLRsgd, [&] {
      taxorec::optim::LorentzRsgdUpdate(&users_ir, leaf_gu[0], cfg_.lr,
                                        cfg_.grad_clip);
      taxorec::optim::LorentzRsgdUpdate(&items_ir, leaf_gv[0], cfg_.lr,
                                        cfg_.grad_clip);
      taxorec::optim::LorentzRsgdUpdate(&users_tg, leaf_gu[1], tag_lr,
                                        cfg_.grad_clip);
    });
    Matrix grad_tags(tags.rows(), tags.cols());
    timed(kAggB, [&] { agg.Backward(tags, tctx, leaf_gv[1], &grad_tags); });
    timed(kReg, [&] {
      if (taxo != nullptr) {
        taxorec::TaxonomyRegLossAndGrad(
            *taxo, tags, cfg_.reg_lambda / static_cast<double>(tags.rows()),
            &grad_tags);
      }
    });
    timed(kPRsgd, [&] {
      taxorec::optim::PoincareRsgdUpdate(&tags, grad_tags, tag_lr,
                                         cfg_.grad_clip);
    });
    const double f =
        kRefCalibMs / (0.5 * (calib_before + calib_.Run()));
    for (auto& layer : t) layer.back() *= f;
  }
  // The active share is scored with the model itself (ScoreItems), which
  // also checks that the replayed forward pass is the model's.
  std::vector<double> row(ni);
  size_t scored_active = 0;
  for (const auto& tr : trip0) {
    model_->ScoreItems(tr.user, row);
    if (cfg_.margin - row[tr.pos] + row[tr.neg] > 0.0) ++scored_active;
  }
  Check(scored_active == active0, "replayed forward pass matches ScoreItems");
  StepReplay r;
  r.tag_agg_fwd = Median(t[kAggF]);
  r.tag_agg_bwd = Median(t[kAggB]);
  r.logmap = Median(t[kLog]);
  r.expmap = Median(t[kExp]);
  r.gcn_fwd = Median(t[kGcnF]);
  r.gcn_bwd = Median(t[kGcnB]);
  r.sample = Median(t[kSample]);
  r.lorentz_rsgd = Median(t[kLRsgd]);
  r.reg = Median(t[kReg]);
  r.poincare_rsgd = Median(t[kPRsgd]);
  r.active_ratio = static_cast<double>(scored_active) / batch;
  return r;
}

taxorec::Dataset MakeInputs(const Workload& w, uint64_t seed) {
  taxorec::SyntheticConfig sc;
  sc.name = w.name;
  sc.seed = kCatalogueSeed;
  sc.num_users = w.users;
  sc.num_items = w.items;
  sc.num_tags = w.tags;
  taxorec::Dataset data = taxorec::GenerateSynthetic(sc);
  // Seed-drawn relabeling: the same catalogue structure under different
  // user and item ids (so different graph layouts, sampled triplets and
  // requests) without changing how hard the catalogue is to rank.
  taxorec::Rng rng(seed);
  auto permutation = [&](size_t n) {
    std::vector<uint32_t> p(n);
    std::iota(p.begin(), p.end(), 0u);
    for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.Uniform(i)]);
    return p;
  };
  const std::vector<uint32_t> pu = permutation(data.num_users);
  const std::vector<uint32_t> pi = permutation(data.num_items);
  for (auto& x : data.interactions) {
    x.user = pu[x.user];
    x.item = pi[x.item];
  }
  for (auto& edge : data.item_tags) edge.first = pi[edge.first];
  return data;
}

int BenchRun::Main() {
  if (args_.trace) taxorec::StartProfiling();
  data_ = MakeInputs(w_, args_.seed);
  const auto t0 = Clock::now();
  // One thread throughout: on a shared host, pool-parallel units spread
  // several times more than single-threaded ones (README.md, "Threads").
  taxorec::SetNumThreads(1);
  Setup();
  Fit();
  // The time-budgeted phases share what --seconds leaves after fitting.
  const double left = std::max(0.0, args_.seconds - MsSince(t0) / 1000.0);
  Evaluate(0.3 * left);
  Freeze();
  Serve(std::max(0.0, args_.seconds - MsSince(t0) / 1000.0));
  Report();
  return failed_ == 0 ? 0 : 1;
}

void BenchRun::Report() {
  const double samples =
      static_cast<double>(w_.batches_per_epoch * cfg_.batch_size);
  const double window_reqs =
      static_cast<double>(kServeWindow * kServeBatch);
  // Pipeline phases from unit medians × the fixed work of one pipeline:
  // `epochs` epochs, every eval user, kPipelineServeBatches batches.
  struct Phases {
    double setup, fit, eval, freeze, serve;
    double total() const { return setup + fit + eval + freeze + serve; }
  };
  auto phases = [&](bool cal) {
    auto med = [&](const Series& s) {
      return cal ? s.cal_median() : s.raw_median();
    };
    Phases p;
    p.setup = med(setup_) / 1000.0;
    p.fit = (med(epoch_) * cfg_.epochs + med(endfit_)) / 1000.0;
    p.eval = static_cast<double>(eval_users_) /
             Median(cal ? eval_rates_cal_ : eval_rates_raw_);
    p.freeze = med(freeze_) / 1000.0;
    p.serve = Median(cal ? batch_cal_ms_ : batch_raw_ms_) *
              kPipelineServeBatches / 1000.0;
    return p;
  };
  const Phases cal = phases(true);
  const Phases raw = phases(false);
  // The timed end-to-end metrics, calibrated and raw.
  struct Timed {
    const char* name;
    double cal, raw;
  };
  const std::vector<Timed> timed = {
      {"pipeline_s", cal.total(), raw.total()},
      {"setup_s", cal.setup, raw.setup},
      {"fit_samples_per_s", samples / (epoch_.cal_median() / 1000.0),
       samples / (epoch_.raw_median() / 1000.0)},
      {"eval_users_per_s", Median(eval_rates_cal_), Median(eval_rates_raw_)},
      {"serve_qps", window_reqs / (serve_window_.cal_median() / 1000.0),
       window_reqs / (serve_window_.raw_median() / 1000.0)},
      {"serve_latency_ms_p50", Quantile(batch_cal_ms_, 0.50),
       Quantile(batch_raw_ms_, 0.50)},
      {"serve_latency_ms_p95",
       SegmentedQuantile(batch_cal_ms_, 0.95, kMinServeBatches),
       SegmentedQuantile(batch_raw_ms_, 0.95, kMinServeBatches)},
  };
  // Diagnostics for steadiness.py: raw next to calibrated, unit counts.
  std::string detail = "perfbench-detail {\"workload\": \"" +
                       std::string(w_.name) + "\", \"calib_ms\": " +
                       std::to_string(Median(calib_.samples_ms())) +
                       ", \"recall_at_20\": " + std::to_string(recall_);
  for (const Timed& m : timed) {
    detail += std::string(", \"") + m.name + "\": [" + std::to_string(m.cal) +
              ", " + std::to_string(m.raw) + "]";
  }
  std::fprintf(stderr,
               "%s, \"units\": [%zu, %zu, %zu, %zu, %zu, %zu]}\n",
               detail.c_str(), setup_.size(), epoch_.size(),
               epoch_armed_.size(), eval_block_.size(), serve_window_.size(),
               batch_raw_ms_.size());

  auto put = [&](const std::string& name, double v, const char* unit) {
    metrics_.push_back({name, v, unit});
  };
  if (!args_.trace) {
    const auto& declared = EndToEndMetrics();
    for (size_t i = 0; i < timed.size(); ++i) {
      put(timed[i].name, timed[i].cal, declared[i].second);
    }
    put("peak_rss_mb",
        static_cast<double>(taxorec::PeakRssBytes()) / (1024.0 * 1024.0),
        "MiB");
    put("ok_ratio",
        static_cast<double>(attempted_ - failed_) /
            static_cast<double>(attempted_),
        "ratio");
  } else {
    const StepReplay rp = ReplayStep();
    ReplayEvalAndServe();
    const double step_ms = Median(step_ms_);
    put("nn.gcn_fwd_ms", rp.gcn_fwd, "ms");
    put("nn.gcn_bwd_ms", rp.gcn_bwd, "ms");
    put("nn.logmap_ms", rp.logmap, "ms");
    put("nn.expmap_ms", rp.expmap, "ms");
    put("math.spmm_ms", spmm_ms_per_step_, "ms");
    put("math.spmm_rows", spmm_rows_per_step_, "count");
    put("optim.lorentz_rsgd_ms", rp.lorentz_rsgd, "ms");
    put("core.step_ms", step_ms, "ms");
    put("core.step_unattributed_ms", step_ms - rp.LayerSum(), "ms");
    put("core.active_triplet_ratio", rp.active_ratio, "ratio");
    put("taxonomy.warmup_ms", warmup_ms_, "ms");
    put("taxonomy.build_ms", build_ms_, "ms");
    put("taxonomy.kmeans_iterations", kmeans_iters_per_build_, "count");
    put("taxonomy.reg_ms", rp.reg, "ms");
    // Rebuilds inside armed epochs plus the per-step taxonomy layers, over
    // the armed epochs' fit time.
    const double armed_fit_ms = std::accumulate(epoch_armed_.cal_ms.begin(),
                                                epoch_armed_.cal_ms.end(), 0.0);
    const double armed_steps =
        static_cast<double>(epoch_armed_.size() * w_.batches_per_epoch);
    put("taxonomy.fit_share",
        (fit_rebuild_ms_ + rp.TaxonomySum() * armed_steps) / armed_fit_ms,
        "ratio");
    put("nn.tag_agg_fwd_ms", rp.tag_agg_fwd, "ms");
    put("nn.tag_agg_bwd_ms", rp.tag_agg_bwd, "ms");
    put("optim.poincare_rsgd_ms", rp.poincare_rsgd, "ms");
    std::vector<double> split_cal;  // scaled like the set-up unit around it
    for (size_t i = 0; i < split_ms_.size(); ++i) {
      split_cal.push_back(split_ms_[i] * setup_.cal_ms[i] /
                          setup_.raw_ms[i]);
    }
    put("data.split_ms", Median(split_cal), "ms");
    put("data.sample_batch_ms", rp.sample, "ms");
    for (const Metric& m : replay_metrics_) metrics_.push_back(m);
    put("serve.freeze_ms", freeze_.cal_median(), "ms");
    put("serve.latency_samples", static_cast<double>(batch_raw_ms_.size()),
        "count");
    put("quality.recall_at_20", recall_, "ratio");
    put("quality.ndcg_at_20", ndcg_, "ratio");
    put("phase.setup_s", cal.setup, "s");
    put("phase.fit_s", cal.fit, "s");
    put("phase.eval_s", cal.eval, "s");
    put("phase.freeze_s", cal.freeze, "s");
    put("phase.serve_s", cal.serve, "s");
    put("calib_ms", Median(calib_.samples_ms()), "ms");
    put("trace_overhead_ratio", epoch_armed_.cal_median() / epoch_.cal_median(),
        "ratio");
    const auto& layers = PerLayerMetrics();
    for (const Timed& m : timed) {
      const std::string name = std::string("raw.") + m.name;
      const auto it = std::find_if(layers.begin(), layers.end(), [&](auto& l) {
        return name == l.first;
      });
      put(name, m.raw, it->second);
    }
    for (const char* c : {"taxorec.spmm.calls", "taxorec.kmeans.calls",
                          "taxorec.kmeans.iterations",
                          "taxorec.serve.requests", "taxorec.serve.batches"}) {
      put(c, static_cast<double>(CounterValue(c)), "count");
    }
  }
}

void BenchRun::ReplayEvalAndServe() {
  // Eval layers: score one user over the catalogue (ScoreItems), then rank
  // it the way EvaluateRanking does (sanitize, mask seen items, partial
  // sort). Serve layer: the blocked top-K kernel on the frozen snapshot, in
  // groups of the server's user batch.
  constexpr size_t kUsers = 64;
  const size_t ni = split_->num_items;
  std::vector<double> scores(ni);
  std::vector<uint32_t> order(ni);
  std::vector<double> score_ms, rank_ms;
  double before = calib_.Run();
  for (size_t i = 0; i < kUsers; ++i) {
    const uint32_t u = static_cast<uint32_t>((i * 104729u) % split_->num_users);
    auto t0 = Clock::now();
    model_->ScoreItems(u, scores);
    score_ms.push_back(MsSince(t0));
    t0 = Clock::now();
    constexpr double kNegInf = -std::numeric_limits<double>::infinity();
    for (double& x : scores) {
      if (!std::isfinite(x)) x = kNegInf;
    }
    for (uint32_t v : split_->train.RowCols(u)) scores[v] = kNegInf;
    for (uint32_t v : split_->val_items[u]) scores[v] = kNegInf;
    std::iota(order.begin(), order.end(), 0u);
    std::partial_sort(order.begin(), order.begin() + kTopK, order.end(),
                      [&](uint32_t a, uint32_t b) {
                        if (scores[a] != scores[b]) {
                          return scores[a] > scores[b];
                        }
                        return a < b;
                      });
    rank_ms.push_back(MsSince(t0));
  }
  double f = kRefCalibMs / (0.5 * (before + calib_.Run()));
  for (double& ms : score_ms) ms *= f;
  for (double& ms : rank_ms) ms *= f;
  const taxorec::FrozenModel& frozen = server_->model();
  const size_t group = server_->options().user_batch;
  std::vector<taxorec::TopKHeap> heaps;
  std::vector<double> scratch;
  std::vector<std::vector<taxorec::TopKEntry>> out;
  std::vector<double> topk_ms;
  auto exclude = [&](uint32_t u) { return split_->train.RowCols(u); };
  before = calib_.Run();
  for (size_t g = 0; g < kUsers / group; ++g) {
    std::vector<uint32_t> users(group);
    std::vector<size_t> ks(group, kTopK);
    for (size_t i = 0; i < group; ++i) {
      users[i] = static_cast<uint32_t>(((g * group + i) * 7919u) %
                                       split_->num_users);
    }
    const auto t0 = Clock::now();
    taxorec::BlockedTopKBatch(frozen, users, ks, exclude, &heaps, &scratch,
                              &out, server_->options().item_block);
    topk_ms.push_back(MsSince(t0) / static_cast<double>(group));
  }
  f = kRefCalibMs / (0.5 * (before + calib_.Run()));
  const double topk = f * Median(topk_ms);
  replay_metrics_.push_back({"eval.score_ms_per_user", Median(score_ms), "ms"});
  replay_metrics_.push_back({"eval.rank_ms_per_user", Median(rank_ms), "ms"});
  replay_metrics_.push_back({"serve.topk_ms_per_user", topk, "ms"});
  // What a batch costs beyond its users' kernel time.
  replay_metrics_.push_back(
      {"serve.batch_overhead_ms",
       Median(batch_cal_ms_) - topk * kServeBatch, "ms"});
}

std::string FormatResult(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[96];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    s += i == 0 ? "" : ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

bool BenchRun::Emit() const {
  const auto& declared = args_.trace ? PerLayerMetrics() : EndToEndMetrics();
  bool same = declared.size() == metrics_.size();
  for (size_t i = 0; same && i < declared.size(); ++i) {
    same = metrics_[i].name == declared[i].first &&
           std::strcmp(metrics_[i].unit, declared[i].second) == 0;
  }
  if (!same) {
    std::fprintf(stderr, "perfbench: reported metrics differ from the "
                         "declared set\n");
    return false;
  }
  const std::string line =
      FormatResult(failed_ == 0, attempted_, failed_, metrics_);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 | --list-metrics\n");
    return 2;
  }
  if (args.list) {
    for (const auto& [name, unit] : EndToEndMetrics()) {
      std::printf("end_to_end %s %s\n", name, unit);
    }
    for (const auto& [name, unit] : PerLayerMetrics()) {
      std::printf("per_layer %s %s\n", name, unit);
    }
    return 0;
  }
  for (const Workload& w : kWorkloads) {
    if (args.workload != w.name) continue;
    BenchRun run(w, args);
    const int rc = run.Main();
    if (!run.Emit()) return 3;
    return rc;
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
