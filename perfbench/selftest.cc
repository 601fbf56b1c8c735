// Tests of the benchmark's own arithmetic (run by test_perfbench.py, or
// directly: perfbench_selftest; exit code 0 = all passed).
//   - calibrated-time scaling;
//   - quantiles and the rule that a tail percentile has >= 10 samples
//     beyond it;
//   - block-wise evaluation aggregates to one whole-split EvaluateRanking
//     call bit for bit (recall@20, ndcg@20 and the user count).
#include <cstdio>
#include <vector>

#include "block_eval.h"
#include "core/taxorec_model.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "harness.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

void TestCalibration() {
  using perfbench::Calibrate;
  using perfbench::kRefCalibMs;
  Expect(Calibrate(10.0, kRefCalibMs, kRefCalibMs) == 10.0,
         "a unit on a reference-speed machine keeps its time");
  Expect(Calibrate(10.0, 2.0 * kRefCalibMs, kRefCalibMs) == 5.0,
         "a machine half as fast halves the calibrated time");
  Expect(Calibrate(10.0, 0.5 * kRefCalibMs, kRefCalibMs) == 20.0,
         "a machine twice as fast doubles the calibrated time");
  perfbench::Series s;
  s.Add(4.0, 2.0 * kRefCalibMs);
  s.Add(9.0, kRefCalibMs);
  s.Add(30.0, 3.0 * kRefCalibMs);
  Expect(s.raw_median() == 9.0, "series raw median");
  Expect(s.cal_median() == 9.0 && s.cal_ms[0] == 2.0 && s.cal_ms[2] == 10.0,
         "series calibrates each unit by its own loop time");
  perfbench::Calibrator calib;
  perfbench::Series unit;
  perfbench::TimeUnit(&calib, &unit, [] {});
  Expect(calib.samples_ms().size() == 3 && unit.size() == 1 &&
             unit.cal_ms[0] ==
                 Calibrate(unit.raw_ms[0],
                           0.5 * (calib.samples_ms()[1] +
                                  calib.samples_ms()[2]),
                           kRefCalibMs),
         "a unit is calibrated by the mean of the loops around it");
}

void TestQuantiles() {
  using perfbench::Quantile;
  const std::vector<double> v = {5, 1, 4, 2, 3};
  Expect(perfbench::Median(v) == 3.0, "median of an odd sample");
  Expect(perfbench::Median({1, 2, 3, 4}) == 2.5, "median of an even sample");
  Expect(Quantile(v, 0.0) == 1.0 && Quantile(v, 1.0) == 5.0,
         "quantile endpoints");
  Expect(Quantile(v, 0.25) == 2.0, "interpolated quartile");
  Expect(perfbench::SamplesBeyond(200, 0.95) == 10,
         "200 samples leave 10 beyond p95");
  Expect(perfbench::TailReportable(200, 0.95), "p95 reportable at 200");
  Expect(!perfbench::TailReportable(199, 0.95), "p95 not reportable at 199");
  std::vector<double> lat(600, 1.0);
  for (size_t i = 0; i < 200; ++i) lat[i] = 2.0;  // a slow first third
  Expect(perfbench::SegmentedQuantile(lat, 0.95, 200) == 1.0,
         "segmented p95 is the median of three 200-sample segments");
  Expect(perfbench::SegmentedQuantile(lat, 0.95, 1000) ==
             perfbench::Quantile(lat, 0.95),
         "a short series is one segment");
  Expect(perfbench::TailReportable(1000, 0.99) &&
             !perfbench::TailReportable(999, 0.99),
         "p99 needs 1000 samples");
}

void TestBlockEval() {
  taxorec::SyntheticConfig sc;
  sc.seed = 5;
  sc.num_users = 300;
  sc.num_items = 500;
  sc.num_tags = 30;
  const taxorec::Dataset data = taxorec::GenerateSynthetic(sc);
  const taxorec::DataSplit split = taxorec::TemporalSplit(data);
  taxorec::ModelConfig cfg;
  cfg.epochs = 2;
  cfg.batches_per_epoch = 3;
  cfg.tag_warmup_per_tag = 50;
  taxorec::TaxoRecModel model(cfg, taxorec::TaxoRecOptions{});
  taxorec::Rng rng(5);
  model.Fit(split, &rng);

  taxorec::EvalOptions opts;
  opts.ks = {20};
  const taxorec::EvalResult whole =
      taxorec::EvaluateRanking(model, split, opts);
  for (size_t block : {1, 7, 64, 300, 1000}) {
    perfbench::BlockEvaluator be(split, block, 20);
    for (size_t b = 0; b < be.num_blocks(); ++b) be.EvalBlock(model, b);
    // A repeated block only re-times; it must not change the aggregate.
    be.EvalBlock(model, 0);
    char what[96];
    std::snprintf(what, sizeof(what),
                  "block eval (%zu users/block) equals EvaluateRanking", block);
    Expect(be.complete() && be.num_eval_users() == whole.num_eval_users &&
               be.recall() == whole.recall[0] && be.ndcg() == whole.ndcg[0],
           what);
  }
}

}  // namespace

int main() {
  TestCalibration();
  TestQuantiles();
  TestBlockEval();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
