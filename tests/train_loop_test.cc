// Tests for the numerical-health monitor and the fault-tolerant training
// loop: divergence detection, rollback + learning-rate backoff, clean-run
// bit-identity with Fit(), and checkpoint/resume round trips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "baselines/hyperml.h"
#include "common/fault_injection.h"
#include "common/health.h"
#include "common/parallel.h"
#include "core/taxorec_model.h"
#include "core/trainer.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"

namespace taxorec {
namespace {

ModelConfig TinyConfig() {
  ModelConfig cfg;
  cfg.dim = 16;
  cfg.tag_dim = 4;
  cfg.epochs = 6;
  cfg.batches_per_epoch = 2;
  cfg.batch_size = 64;
  cfg.gcn_layers = 2;
  cfg.taxo_rebuild_every = 2;
  return cfg;
}

DataSplit SmallSplit() {
  SyntheticConfig cfg;
  cfg.seed = 11;
  cfg.num_users = 60;
  cfg.num_items = 90;
  cfg.num_tags = 15;
  cfg.num_roots = 3;
  return TemporalSplit(GenerateSynthetic(cfg));
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void CopyFile(const std::string& from, const std::string& to) {
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  out << ReadAllBytes(from);
}

void ExpectSameCheckpoint(const Checkpoint& a, const Checkpoint& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [name, ma] : a.entries()) {
    const Matrix* mb = b.Get(name);
    ASSERT_NE(mb, nullptr) << name;
    ASSERT_EQ(ma.rows(), mb->rows()) << name;
    ASSERT_EQ(ma.cols(), mb->cols()) << name;
    const auto fa = ma.flat();
    const auto fb = mb->flat();
    EXPECT_EQ(
        std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(double)), 0)
        << name << " differs";
  }
}

class TrainLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    SetNumThreads(1);
  }
  void TearDown() override {
    FaultInjector::Instance().Reset();
    SetNumThreads(1);
  }
};

// ---------------------------------------------------------------- monitor

TEST(HealthMonitorTest, CleanMatricesAreHealthy) {
  Matrix m(2, 3);
  m.at(0, 0) = 0.5;
  m.at(1, 2) = -0.25;
  HealthMonitor mon;
  mon.CheckFinite("m", m);
  mon.CheckBallRows("m", m);
  mon.CheckLoss(0, 1.25);
  EXPECT_TRUE(mon.healthy());
  EXPECT_EQ(mon.report().ToString(), "healthy");
}

TEST(HealthMonitorTest, FlagsNonFiniteValues) {
  Matrix m(2, 2);
  m.at(1, 1) = std::numeric_limits<double>::quiet_NaN();
  HealthMonitor mon;
  mon.CheckFinite("weights", m);
  EXPECT_FALSE(mon.healthy());
  EXPECT_EQ(mon.report().nonfinite_values, 1u);
  EXPECT_NE(mon.report().ToString().find("weights row 1"), std::string::npos);
}

TEST(HealthMonitorTest, FlagsBallEscapeButNotProjectedRows) {
  Matrix m(2, 2);
  m.at(0, 0) = 1.0 - 1e-5;  // exactly on the projection radius: fine
  m.at(1, 0) = 0.9999999;   // past 1 - kBallEps: escaped
  HealthMonitor mon;
  mon.CheckBallRows("tags", m);
  EXPECT_FALSE(mon.healthy());
  EXPECT_EQ(mon.report().off_manifold_rows, 1u);
}

TEST(HealthMonitorTest, FlagsLorentzResidualAndNanRows) {
  Matrix m(3, 3);
  // Row 0: valid hyperboloid point x0 = sqrt(1 + ||s||^2).
  m.at(0, 1) = 0.3;
  m.at(0, 2) = 0.4;
  m.at(0, 0) = std::sqrt(1.0 + 0.3 * 0.3 + 0.4 * 0.4);
  // Row 1: perturbed off the manifold.
  m.at(1, 1) = 0.3;
  m.at(1, 2) = 0.4;
  m.at(1, 0) = std::sqrt(1.25) + 0.01;
  // Row 2: NaN (must be counted as non-finite, not skipped — NaN fails
  // every comparison, so the residual test alone would miss it).
  m.at(2, 0) = std::numeric_limits<double>::quiet_NaN();
  HealthMonitor mon;
  mon.CheckLorentzRows("users", m);
  EXPECT_FALSE(mon.healthy());
  EXPECT_EQ(mon.report().off_manifold_rows, 1u);
  EXPECT_EQ(mon.report().nonfinite_values, 1u);
}

TEST(HealthMonitorTest, FlagsBadLosses) {
  HealthOptions opts;
  opts.max_abs_loss = 10.0;
  HealthMonitor mon(opts);
  mon.CheckLoss(0, 5.0);
  EXPECT_TRUE(mon.healthy());
  mon.CheckLoss(1, std::numeric_limits<double>::quiet_NaN());
  mon.CheckLoss(2, 100.0);
  EXPECT_EQ(mon.report().bad_losses, 2u);
}

// ------------------------------------------------------------- train loop

TEST_F(TrainLoopTest, CleanTaxoRecRunBitIdenticalToFitAtAnyThreadCount) {
  const DataSplit split = SmallSplit();
  const ModelConfig cfg = TinyConfig();

  TaxoRecModel plain(cfg, TaxoRecOptions{});
  Rng rng1(21);
  plain.Fit(split, &rng1);

  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    TaxoRecModel looped(cfg, TaxoRecOptions{});
    Rng rng2(21);
    auto result = RunTrainLoop(&looped, split, &rng2);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->epochs_run, cfg.epochs);
    EXPECT_EQ(result->rollbacks, 0);
    ExpectSameCheckpoint(plain.SaveCheckpoint(), looped.SaveCheckpoint());
  }
}

TEST_F(TrainLoopTest, CleanHyperMlRunBitIdenticalToFit) {
  const DataSplit split = SmallSplit();
  const ModelConfig cfg = TinyConfig();

  HyperMl plain(cfg);
  Rng rng1(33);
  plain.Fit(split, &rng1);

  HyperMl looped(cfg);
  Rng rng2(33);
  auto result = RunTrainLoop(&looped, split, &rng2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameCheckpoint(plain.SaveState(), looped.SaveState());
}

TEST_F(TrainLoopTest, RecoversFromInjectedNanGradient) {
  const DataSplit split = SmallSplit();
  ModelConfig cfg = TinyConfig();
  cfg.epochs = 10;
  FaultInjector::Instance().Arm(faults::kGradNan, /*epoch=*/3);

  TaxoRecModel model(cfg, TaxoRecOptions{});
  Rng rng(5);
  int rollback_events = 0;
  TrainLoopOptions opts;
  opts.callback = [&](const TrainLoopEvent& e) {
    if (e.kind == TrainLoopEvent::Kind::kRollback) ++rollback_events;
  };
  auto result = RunTrainLoop(&model, split, &rng, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rollbacks, 1);
  EXPECT_EQ(rollback_events, 1);
  EXPECT_DOUBLE_EQ(result->lr_scale, 0.5);
  EXPECT_EQ(FaultInjector::Instance().fired(faults::kGradNan), 1);
  EXPECT_TRUE(std::isfinite(result->final_loss));

  const EvalResult r = EvaluateRanking(model, split);
  EXPECT_GT(r.num_eval_users, 0u);
  for (double v : {r.recall[0], r.recall[1], r.ndcg[0], r.ndcg[1]}) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
  }
}

TEST_F(TrainLoopTest, HyperMlRecoversFromInjectedNanGradient) {
  const DataSplit split = SmallSplit();
  const ModelConfig cfg = TinyConfig();
  FaultInjector::Instance().Arm(faults::kGradNan, /*epoch=*/2);

  HyperMl model(cfg);
  Rng rng(7);
  auto result = RunTrainLoop(&model, split, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rollbacks, 1);
  HealthMonitor mon;
  model.CheckHealth(&mon);
  EXPECT_TRUE(mon.healthy()) << mon.report().ToString();
}

TEST_F(TrainLoopTest, PersistentDivergenceExhaustsRetriesWithError) {
  const DataSplit split = SmallSplit();
  const ModelConfig cfg = TinyConfig();
  // Poison every attempt: the loop must give up after the retry budget
  // instead of spinning (and must return a Status, not abort).
  FaultInjector::Instance().Arm(faults::kGradNan, /*epoch=*/-1,
                                /*count=*/1000);

  TaxoRecModel model(cfg, TaxoRecOptions{});
  Rng rng(5);
  TrainLoopOptions opts;
  opts.max_divergence_retries = 2;
  auto result = RunTrainLoop(&model, split, &rng, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("diverged"), std::string::npos)
      << result.status().ToString();
}

// BPRMF keeps no training state, so its divergence cannot roll back: the
// scan of its declared rows finds the non-finite values and the loop
// returns an error naming the model, the epoch and the first defect.
TEST_F(TrainLoopTest, StatelessModelDivergenceReturnsAnError) {
  const DataSplit split = SmallSplit();
  ModelConfig cfg = TinyConfig();
  cfg.lr = 1e200;
  auto model = MakeModel("BPRMF", cfg);
  int rollback_events = 0;
  TrainLoopOptions opts;
  opts.callback = [&](const TrainLoopEvent& e) {
    if (e.kind == TrainLoopEvent::Kind::kRollback) ++rollback_events;
  };
  Rng rng(8);
  auto result = RunTrainLoop(model.get(), split, &rng, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  const std::string message(result.status().message());
  EXPECT_NE(message.find("BPRMF diverged at epoch 0 with no training state "
                         "to roll back"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("; first defect: "), std::string::npos) << message;
  EXPECT_EQ(rollback_events, 0);
}

TEST_F(TrainLoopTest, ResumeContinuesFromSavedEpochBitExact) {
  const DataSplit split = SmallSplit();
  ModelConfig cfg = TinyConfig();
  cfg.taxo_rebuild_every = 1;  // rebuild every epoch → resume is bit-exact
  const std::string full_path = TempPath("full_run.ckpt");
  const std::string mid_path = TempPath("mid_run.ckpt");

  TaxoRecModel full(cfg, TaxoRecOptions{});
  Rng rng1(21);
  TrainLoopOptions opts;
  opts.checkpoint_path = full_path;
  opts.save_every = 2;
  // Snapshot the epoch-2 checkpoint as it lands on disk — this is the file
  // a killed run would leave behind.
  opts.callback = [&](const TrainLoopEvent& e) {
    if (e.kind == TrainLoopEvent::Kind::kCheckpoint && e.epoch == 2) {
      CopyFile(full_path, mid_path);
    }
  };
  auto r1 = RunTrainLoop(&full, split, &rng1, opts);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->checkpoints_written, 3);  // epochs 2, 4 + final

  // Resume with a DIFFERENT rng seed: a disk resume must depend only on
  // the checkpoint and the model config, never on the fresh rng.
  TaxoRecModel resumed(cfg, TaxoRecOptions{});
  Rng rng2(999);
  TrainLoopOptions opts2;
  opts2.checkpoint_path = mid_path;
  opts2.resume = true;
  int resume_events = 0;
  opts2.callback = [&](const TrainLoopEvent& e) {
    if (e.kind == TrainLoopEvent::Kind::kResume) ++resume_events;
  };
  auto r2 = RunTrainLoop(&resumed, split, &rng2, opts2);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(resume_events, 1);
  EXPECT_EQ(r2->start_epoch, 2);
  EXPECT_EQ(r2->epochs_run, cfg.epochs - 2);
  ExpectSameCheckpoint(full.SaveCheckpoint(), resumed.SaveCheckpoint());
  // Both final on-disk checkpoints carry identical matrices and trainer
  // state, so the files match byte for byte.
  EXPECT_EQ(ReadAllBytes(full_path), ReadAllBytes(mid_path));
}

TEST_F(TrainLoopTest, ResumeWithoutTrainerStateRejected) {
  const DataSplit split = SmallSplit();
  const ModelConfig cfg = TinyConfig();
  const std::string path = TempPath("no_meta.ckpt");

  TaxoRecModel trained(cfg, TaxoRecOptions{});
  Rng rng(3);
  trained.Fit(split, &rng);
  ASSERT_TRUE(trained.SaveCheckpoint().WriteFile(path).ok());

  TaxoRecModel model(cfg, TaxoRecOptions{});
  Rng rng2(3);
  TrainLoopOptions opts;
  opts.checkpoint_path = path;
  opts.resume = true;
  auto result = RunTrainLoop(&model, split, &rng2, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("trainer state"),
            std::string::npos);
}

TEST_F(TrainLoopTest, ResumeWithMissingFileStartsFresh) {
  const DataSplit split = SmallSplit();
  const ModelConfig cfg = TinyConfig();
  TaxoRecModel model(cfg, TaxoRecOptions{});
  Rng rng(4);
  TrainLoopOptions opts;
  opts.checkpoint_path = TempPath("never_written.ckpt");
  std::remove(opts.checkpoint_path.c_str());  // leftover from a prior run
  opts.resume = true;
  auto result = RunTrainLoop(&model, split, &rng, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->start_epoch, 0);
  EXPECT_EQ(result->epochs_run, cfg.epochs);
}

// CML saves no training state, so there is nothing to checkpoint or to
// resume from: each persistence option is refused before any training
// (no epoch runs and `rng` is not drawn from).
TEST_F(TrainLoopTest, StatelessModelRejectsPersistenceBeforeTraining) {
  const DataSplit split = SmallSplit();
  const ModelConfig cfg = TinyConfig();
  auto model = MakeAblationVariant("CML", cfg);
  ASSERT_NE(model, nullptr);
  ASSERT_EQ(model->SaveState().size(), 0u);

  TrainLoopOptions resume;
  resume.resume = true;
  TrainLoopOptions save_every;
  save_every.save_every = 2;
  TrainLoopOptions checkpoint;
  checkpoint.checkpoint_path = TempPath("cml.ckpt");
  for (TrainLoopOptions* opts : {&resume, &save_every, &checkpoint}) {
    int events = 0;
    opts->callback = [&events](const TrainLoopEvent&) { ++events; };
    Rng rng(6);
    auto result = RunTrainLoop(model.get(), split, &rng, *opts);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("no training state"),
              std::string::npos)
        << result.status().ToString();
    EXPECT_EQ(events, 0);
    EXPECT_EQ(rng.Next(), Rng(6).Next());
  }
}

}  // namespace
}  // namespace taxorec
