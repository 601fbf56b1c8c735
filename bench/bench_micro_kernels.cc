// Microbenchmarks of the substrate kernels (google-benchmark): hyperbolic
// primitives, the manual layers, GCN propagation, K-means, taxonomy
// construction, and evaluation. Not a paper table — used to track the cost
// of the building blocks. After the google-benchmark suites, a thread-
// scaling report times SpMM and full-ranking evaluation at 1 thread vs the
// configured count (--threads / TAXOREC_THREADS) and writes both timings
// to BENCH_micro.json, followed by the instrumentation overhead checks
// (armed tracing and armed profiling each within 3% on the SpMM hot path).
//
// --quick skips the google-benchmark suites and shrinks the scaling
// datasets: the `ctest -L bench` smoke mode, whose BENCH_micro.json is
// gated against bench/baselines/BENCH_micro.baseline.json by
// bench_compare.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "data/sampler.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "hyperbolic/klein.h"
#include "hyperbolic/lorentz.h"
#include "hyperbolic/poincare.h"
#include "math/csr.h"
#include "math/rng.h"
#include "math/vec_ops.h"
#include "nn/gcn.h"
#include "nn/lorentz_layers.h"
#include "nn/midpoint.h"
#include "taxonomy/builder.h"
#include "taxonomy/poincare_kmeans.h"

namespace taxorec {
namespace {

Matrix RandomBall(Rng* rng, size_t n, size_t d, double radius) {
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    poincare::RandomPoint(rng, radius, m.row(i));
  }
  return m;
}

Matrix RandomHyperboloid(Rng* rng, size_t n, size_t d1, double stddev) {
  Matrix m(n, d1);
  for (size_t i = 0; i < n; ++i) {
    lorentz::RandomPoint(rng, stddev, m.row(i));
  }
  return m;
}

void BM_PoincareDistance(benchmark::State& state) {
  Rng rng(1);
  const size_t d = state.range(0);
  Matrix pts = RandomBall(&rng, 64, d, 0.9);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        poincare::Distance(pts.row(i % 64), pts.row((i + 7) % 64)));
    ++i;
  }
}
BENCHMARK(BM_PoincareDistance)->Arg(12)->Arg(64);

void BM_LorentzSqDistanceGrad(benchmark::State& state) {
  Rng rng(2);
  const size_t d1 = state.range(0) + 1;
  Matrix pts = RandomHyperboloid(&rng, 64, d1, 0.5);
  std::vector<double> gx(d1), gy(d1);
  size_t i = 0;
  for (auto _ : state) {
    lorentz::SqDistanceGrad(pts.row(i % 64), pts.row((i + 9) % 64), 1.0,
                            vec::Span(gx), vec::Span(gy));
    benchmark::DoNotOptimize(gx.data());
    ++i;
  }
}
BENCHMARK(BM_LorentzSqDistanceGrad)->Arg(12)->Arg(64);

void BM_MobiusExpMap(benchmark::State& state) {
  Rng rng(3);
  Matrix pts = RandomBall(&rng, 64, 12, 0.8);
  std::vector<double> eta(12, 0.01), out(12);
  size_t i = 0;
  for (auto _ : state) {
    poincare::ExpMap(pts.row(i % 64), eta, vec::Span(out));
    benchmark::DoNotOptimize(out.data());
    ++i;
  }
}
BENCHMARK(BM_MobiusExpMap);

void BM_LogExpMapBatch(benchmark::State& state) {
  Rng rng(4);
  const size_t n = state.range(0);
  Matrix x = RandomHyperboloid(&rng, n, 65, 0.5);
  Matrix z, y;
  for (auto _ : state) {
    nn::LogMapOriginForward(x, &z);
    nn::ExpMapOriginForward(z, &y);
    benchmark::DoNotOptimize(y.flat().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LogExpMapBatch)->Arg(1024);

void BM_EinsteinMidpointAgg(benchmark::State& state) {
  Rng rng(5);
  SyntheticConfig cfg;
  cfg.num_users = 100;
  cfg.num_items = 500;
  cfg.num_tags = 60;
  const Dataset data = GenerateSynthetic(cfg);
  const CsrMatrix psi =
      CsrMatrix::FromPairs(data.num_items, data.num_tags, data.item_tags);
  Matrix tags = RandomBall(&rng, 60, 12, 0.8);
  nn::TagAggregation agg(&psi);
  nn::TagAggContext ctx;
  Matrix out;
  for (auto _ : state) {
    agg.Forward(tags, &ctx, &out);
    benchmark::DoNotOptimize(out.flat().data());
  }
  state.SetItemsProcessed(state.iterations() * data.num_items);
}
BENCHMARK(BM_EinsteinMidpointAgg);

void BM_GcnForwardBackward(benchmark::State& state) {
  Rng rng(6);
  SyntheticConfig cfg;
  cfg.num_users = 400;
  cfg.num_items = 600;
  cfg.num_tags = 30;
  const Dataset data = GenerateSynthetic(cfg);
  const DataSplit split = TemporalSplit(data);
  nn::BipartiteGcn gcn(split.train, 3);
  Matrix zu(400, 64), zv(600, 64);
  zu.FillGaussian(&rng, 0.1);
  zv.FillGaussian(&rng, 0.1);
  nn::GcnContext ctx;
  Matrix ou, ov, gu, gv;
  for (auto _ : state) {
    gcn.Forward(zu, zv, &ctx, &ou, &ov);
    gcn.Backward(ou, ov, &gu, &gv);
    benchmark::DoNotOptimize(gu.flat().data());
  }
}
BENCHMARK(BM_GcnForwardBackward);

void BM_PoincareKMeans(benchmark::State& state) {
  Rng rng(7);
  const size_t S = state.range(0);
  Matrix tags = RandomBall(&rng, S, 12, 0.9);
  std::vector<uint32_t> subset(S);
  for (size_t i = 0; i < S; ++i) subset[i] = static_cast<uint32_t>(i);
  for (auto _ : state) {
    auto result = PoincareKMeans(tags, subset, 3, &rng);
    benchmark::DoNotOptimize(result.assignment.data());
  }
}
BENCHMARK(BM_PoincareKMeans)->Arg(64)->Arg(256);

void BM_TaxonomyBuild(benchmark::State& state) {
  Rng rng(8);
  SyntheticConfig cfg;
  cfg.num_users = 200;
  cfg.num_items = 600;
  cfg.num_tags = 120;
  const Dataset data = GenerateSynthetic(cfg);
  const DataSplit split = TemporalSplit(data);
  const CsrMatrix tag_items = split.item_tags.Transposed();
  Matrix tags = RandomBall(&rng, 120, 12, 0.9);
  for (auto _ : state) {
    TaxonomyBuildConfig bc;
    bc.seed = 5;
    auto taxo = BuildTaxonomy(tags, split.item_tags, tag_items, bc);
    benchmark::DoNotOptimize(taxo.num_nodes());
  }
}
BENCHMARK(BM_TaxonomyBuild);

void BM_TripletSampling(benchmark::State& state) {
  SyntheticConfig cfg;
  cfg.num_users = 400;
  cfg.num_items = 600;
  cfg.num_tags = 30;
  const Dataset data = GenerateSynthetic(cfg);
  const DataSplit split = TemporalSplit(data);
  TripletSampler sampler(&split.train);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(&rng));
  }
}
BENCHMARK(BM_TripletSampling);

/// Preference = <user embedding, item embedding>: cheap enough that the
/// eval timing below is dominated by the ranking loop itself.
class DotScorer : public Recommender {
 public:
  DotScorer(Matrix users, Matrix items)
      : users_(std::move(users)), items_(std::move(items)) {}
  std::string name() const override { return "DotScorer"; }
  void ScoreItems(uint32_t user, std::span<double> out) const override {
    const auto u = users_.row(user);
    for (size_t v = 0; v < out.size(); ++v) {
      out[v] = vec::Dot(u, items_.row(v));
    }
  }

 private:
  Matrix users_;
  Matrix items_;
};

/// Times row-parallel SpMM and full-ranking evaluation single- vs
/// multi-threaded and writes BENCH_micro.json, whose wall_seconds runs from
/// `start` to the end of this measured work. `quick` shrinks the datasets
/// so the ctest bench smoke stays fast; the baseline it gates against must
/// be refreshed in the same mode (see bench_compare --update-baseline).
void RunThreadScalingReport(int threads,
                            std::chrono::steady_clock::time_point start,
                            bool quick) {
  Rng rng(42);
  SyntheticConfig cfg;
  cfg.num_users = quick ? 500 : 1500;
  cfg.num_items = quick ? 900 : 2500;
  cfg.num_tags = 80;
  cfg.seed = 7;
  const Dataset data = GenerateSynthetic(cfg);
  const DataSplit split = TemporalSplit(data);

  Matrix dense(split.num_items, 64);
  dense.FillGaussian(&rng, 0.1);
  Matrix spmm_out;
  auto spmm = [&] { split.train.Multiply(dense, &spmm_out); };
  // TaxoRec's two channel widths at the default dims (tag channel 12 + 1,
  // item channel 52 + 1 hyperboloid coordinates), one thread.
  Matrix dense13(split.num_items, 13), dense53(split.num_items, 53);
  dense13.FillGaussian(&rng, 0.1);
  dense53.FillGaussian(&rng, 0.1);
  auto spmm13 = [&] { split.train.Multiply(dense13, &spmm_out); };
  auto spmm53 = [&] { split.train.Multiply(dense53, &spmm_out); };

  Matrix users(split.num_users, 32), items(split.num_items, 32);
  users.FillGaussian(&rng, 0.1);
  items.FillGaussian(&rng, 0.1);
  const DotScorer scorer(std::move(users), std::move(items));
  EvalResult eval_out;
  auto eval = [&] { eval_out = EvaluateRanking(scorer, split); };

  SetNumThreads(1);
  const double spmm_t1 = bench::TimeBestSeconds(5, spmm);
  const double spmm13_t1 = bench::TimeBestSeconds(5, spmm13);
  const double spmm53_t1 = bench::TimeBestSeconds(5, spmm53);
  const double eval_t1 = bench::TimeBestSeconds(3, eval);
  SetNumThreads(threads);
  const double spmm_tn = bench::TimeBestSeconds(5, spmm);
  const double eval_tn = bench::TimeBestSeconds(3, eval);

  std::printf("\nthread scaling (threads=%d, hardware_concurrency=%d)\n",
              threads, HardwareThreads());
  std::printf(
      "  spmm %zux%zu*64:   t1 %.4fs  tN %.4fs  speedup %.2fx  (%s kernel)\n",
      split.train.rows(), split.train.cols(), spmm_t1, spmm_tn,
      spmm_t1 / spmm_tn, CsrMatrix::KernelName());
  std::printf("  spmm *13: t1 %.4fs   spmm *53: t1 %.4fs\n", spmm13_t1,
              spmm53_t1);
  std::printf("  eval %zu users:    t1 %.4fs  tN %.4fs  speedup %.2fx\n",
              static_cast<size_t>(eval_out.num_eval_users), eval_t1, eval_tn,
              eval_t1 / eval_tn);

  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  std::FILE* f = std::fopen("BENCH_micro.json", "w");
  if (f == nullptr) return;
  std::fprintf(
      f,
      "{\"bench\": \"micro\", \"threads\": %d, \"hardware_concurrency\": %d,\n"
      " \"quick\": %s, \"spmm_backend\": \"%s\",\n"
      " \"spmm\": {\"t1_seconds\": %.6f, \"tN_seconds\": %.6f, "
      "\"speedup\": %.3f},\n"
      " \"spmm_d13\": {\"t1_seconds\": %.6f}, "
      "\"spmm_d53\": {\"t1_seconds\": %.6f},\n"
      " \"eval\": {\"t1_seconds\": %.6f, \"tN_seconds\": %.6f, "
      "\"speedup\": %.3f},\n"
      " \"wall_seconds\": %.3f, \"peak_rss_bytes\": %llu,\n"
      " \"rusage\": %s,\n \"profile\": %s,\n \"metrics\": %s}\n",
      threads, HardwareThreads(), quick ? "true" : "false",
      CsrMatrix::KernelName(), spmm_t1, spmm_tn,
      spmm_t1 / spmm_tn, spmm13_t1, spmm53_t1, eval_t1, eval_tn, eval_t1 / eval_tn, wall,
      static_cast<unsigned long long>(PeakRssBytes()),
      taxorec::RusageJsonObject(taxorec::SelfRusage()).c_str(),
      taxorec::ProfileJsonArray().c_str(),
      MetricsRegistry::Instance().SnapshotJson().c_str());
  std::fclose(f);
  std::printf("[bench] micro: threads=%d -> BENCH_micro.json\n", threads);
}

/// Asserts the observability budget from common/trace.h: armed tracing and
/// armed profiling may each slow the SpMM hot path by at most 3% (plus a
/// small absolute slack for timer noise on sub-millisecond kernels) over a
/// fully disarmed run.
/// Best-of-N timings with retries keep scheduler hiccups from failing the
/// checks spuriously. Every consumer is disarmed on return.
void RunInstrumentationOverheadChecks() {
  Rng rng(11);
  SyntheticConfig cfg;
  cfg.num_users = 1500;
  cfg.num_items = 2500;
  cfg.num_tags = 80;
  cfg.seed = 7;
  const Dataset data = GenerateSynthetic(cfg);
  const DataSplit split = TemporalSplit(data);
  Matrix dense(split.num_items, 64);
  dense.FillGaussian(&rng, 0.1);
  Matrix out;
  auto spmm = [&] { split.train.Multiply(dense, &out); };

  constexpr double kRelBudget = 0.03;
  constexpr double kAbsSlackSeconds = 500e-6;
  // The bench harness arms profiling globally; every consumer must be off
  // for the disarmed baseline.
  StopTracing();
  StopProfiling();

  auto check_armed = [&](const char* what, double rel_budget, void (*arm)(),
                         void (*disarm)(), void (*drop)()) {
    double plain = 0.0, armed = 0.0;
    bool within_budget = false;
    for (int attempt = 0; attempt < 5 && !within_budget; ++attempt) {
      plain = bench::TimeBestSeconds(10, spmm);
      arm();
      armed = bench::TimeBestSeconds(10, spmm);
      disarm();
      drop();
      within_budget = armed <= plain * (1.0 + rel_budget) + kAbsSlackSeconds;
    }
    std::printf("  spmm %s overhead: plain %.6fs armed %.6fs (%+.2f%%)\n",
                what, plain, armed, 100.0 * (armed / plain - 1.0));
    TAXOREC_CHECK_MSG(within_budget,
                      "armed instrumentation exceeds the SpMM overhead "
                      "budget");
  };
  check_armed("trace", kRelBudget, &StartTracing, &StopTracing,
              &ClearTraceBuffers);
  check_armed("profile", kRelBudget, &StartProfiling, &StopProfiling,
              &ClearProfile);
  // The sampling profiler is asynchronous (1 kHz SIGPROF per thread), so
  // its budget is the ISSUE's 5% rather than the synchronous consumers'
  // 3%. Disarmed cost is one relaxed load, covered by the trace check's
  // disarmed baseline.
  if (Status probe = StartSampling(SamplingOptions{}); probe.ok()) {
    StopSampling();
    ClearSamples();
    check_armed("sampling", 0.05,
                +[] { (void)StartSampling(SamplingOptions{}); },
                &StopSampling, &ClearSamples);
  } else {
    std::printf("  spmm sampling overhead check skipped: %s\n",
                probe.message().c_str());
  }
}

}  // namespace
}  // namespace taxorec

int main(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  const bool quick = taxorec::bench::HasArg(argc, argv, "quick");
  const int threads = taxorec::bench::InitThreads(argc, argv);
  taxorec::bench::InitObservability(argc, argv);
  if (!quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  taxorec::RunThreadScalingReport(threads, start, quick);
  // Drain the armed sinks before the overhead checks, which toggle and
  // clear the instrumentation machinery themselves.
  const bool wrote = taxorec::bench::WriteObservabilityFiles(argc, argv);
  taxorec::RunInstrumentationOverheadChecks();
  if (!quick) benchmark::Shutdown();
  return wrote ? 0 : 1;
}
