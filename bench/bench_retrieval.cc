// Retrieval benchmark (DESIGN.md §15): recall@K-vs-QPS for the IVF
// two-stage retriever against the exact float32 scan it approximates.
//
// The catalogue is a hyperboloid mixture: dim-32 spatial concept centers
// with tight item clouds around them, lifted to the Lorentz model — the
// shape trained hyperbolic embeddings actually take (items cluster by
// concept; the paper's taxonomy construction depends on exactly this
// structure, and IVF's coarse quantizer exploits it the same way). Users
// sit near a concept center, as metric-learning training places them.
// The exact path sweeps the catalogue per query, the IVF path probes the
// nearest cells per the --nprobe sweep {1, 2, 4, 8, 16, 32}. Queries run
// sequentially on one thread so QPS is per-core and the speedup ratio is
// machine-independent to first order.
//
// Writes BENCH_retrieval.json. `--quick` shrinks the catalogue for the
// ctest bench smoke, which bench_compare gates against
// bench/baselines/BENCH_retrieval.baseline.json with
// --require-baseline-keys over the nprobe-8 operating point:
//   retrieval.ivf.recall_loss_at_10   (floored at 0.01 so the baseline is
//                                      nonzero and a recall collapse trips
//                                      the relative gate)
//   retrieval.ivf.seconds_per_query
//   retrieval.exact.seconds_per_query
// Full mode asserts the tentpole target directly: some swept nprobe must
// reach recall@10 >= 0.95 at >= 10x the exact scan's QPS on the 1M-item
// catalogue. Quick mode instead asserts full-probe equivalence (the same
// oracle property the ivf_retrieval_test suite pins), since a
// cache-resident catalogue is too small for a meaningful speedup gate.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "hyperbolic/lorentz.h"
#include "math/matrix.h"
#include "math/rng.h"
#include "serve/ivf_index.h"
#include "serve/server.h"

namespace taxorec {
namespace {

constexpr size_t kTopK = 10;
constexpr size_t kGateNprobe = 8;
const size_t kNprobeSweep[] = {1, 2, 4, 8, 16, 32};

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct SweepPoint {
  size_t nprobe = 0;
  double recall_at_10 = 0.0;
  double seconds_per_query = 0.0;
  double qps = 0.0;
  double speedup_vs_exact = 0.0;
  double mean_cells_probed = 0.0;
  double mean_items_scored = 0.0;
};

/// Fraction of the exact list's items the IVF list recovered, averaged
/// over users ("recall@K against the same-tier oracle").
double RecallAgainst(const std::vector<std::vector<TopKEntry>>& exact,
                     const std::vector<std::vector<TopKEntry>>& got) {
  double total = 0.0;
  for (size_t u = 0; u < exact.size(); ++u) {
    size_t hit = 0;
    for (const TopKEntry& w : exact[u]) {
      for (const TopKEntry& g : got[u]) {
        if (g.item == w.item) {
          ++hit;
          break;
        }
      }
    }
    total += static_cast<double>(hit) /
             static_cast<double>(exact[u].size());
  }
  return total / static_cast<double>(exact.size());
}

int Main(int argc, const char* const* argv) {
  const auto start = std::chrono::steady_clock::now();
  const bool quick = bench::HasArg(argc, argv, "quick");
  const int threads = bench::InitThreads(argc, argv);
  bench::InitObservability(argc, argv);

  const size_t num_items = quick ? 20000 : 1000000;
  const size_t num_users = quick ? 64 : 32;
  const int reps = quick ? 10 : 3;
  constexpr size_t kDim = 33;  // 32 spatial + the x0 time coordinate

  Rng rng(4242);
  const size_t num_centers = std::max<size_t>(32, num_items / 500);
  Matrix centers(num_centers, kDim - 1);
  centers.FillGaussian(&rng, 0.5);

  // Spatial coordinates = concept center + tight cloud, lifted onto the
  // hyperboloid (x0 = sqrt(1 + ||spatial||^2)).
  const auto mixture_row = [&](std::span<double> row) {
    const auto c = centers.row(rng.Uniform(num_centers));
    double sq = 0.0;
    for (size_t d = 1; d < row.size(); ++d) {
      row[d] = c[d - 1] + 0.08 * rng.NextGaussian();
      sq += row[d] * row[d];
    }
    row[0] = std::sqrt(1.0 + sq);
  };

  Matrix users(num_users, kDim), items(num_items, kDim);
  for (size_t u = 0; u < num_users; ++u) mixture_row(users.row(u));
  for (size_t v = 0; v < num_items; ++v) mixture_row(items.row(v));
  const ScoringSnapshot rows{ScoreKernel::kNegLorentzSqDist, &users, &items};

  const FrozenModel exact_model(rows, PrecisionTier::kFloat32);

  const auto build_t0 = std::chrono::steady_clock::now();
  const IvfIndex index =
      IvfIndex::Build(rows, PrecisionTier::kFloat32, IvfOptions{});
  const double build_seconds = Seconds(build_t0);

  // Exact oracle lists + per-query cost of the full scan.
  std::vector<std::vector<TopKEntry>> exact_lists(num_users);
  TopKHeap heap;
  std::vector<double> scores;
  const auto exact_t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    for (size_t u = 0; u < num_users; ++u) {
      BlockedTopK(exact_model, static_cast<uint32_t>(u), kTopK, {}, &heap,
                  &scores, &exact_lists[u], kServeItemBlock);
    }
  }
  const double exact_spq =
      Seconds(exact_t0) / static_cast<double>(num_users * reps);

  std::vector<SweepPoint> sweep;
  IvfScratch scratch;
  std::vector<std::vector<TopKEntry>> ivf_lists(num_users);
  for (size_t nprobe : kNprobeSweep) {
    if (nprobe > index.num_cells()) break;
    IvfQueryStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      for (size_t u = 0; u < num_users; ++u) {
        index.Query(static_cast<uint32_t>(u), kTopK, nprobe, {}, &scratch,
                    &ivf_lists[u], &stats);
      }
    }
    const double queries = static_cast<double>(num_users * reps);
    SweepPoint p;
    p.nprobe = nprobe;
    p.seconds_per_query = Seconds(t0) / queries;
    p.qps = 1.0 / p.seconds_per_query;
    p.speedup_vs_exact = exact_spq / p.seconds_per_query;
    p.recall_at_10 = RecallAgainst(exact_lists, ivf_lists);
    p.mean_cells_probed = static_cast<double>(stats.cells_probed) / queries;
    p.mean_items_scored = static_cast<double>(stats.items_scored) / queries;
    sweep.push_back(p);
    std::printf(
        "[bench] retrieval: nprobe=%zu recall@10=%.4f spq=%.3gs "
        "speedup=%.1fx cells=%.1f items=%.0f\n",
        p.nprobe, p.recall_at_10, p.seconds_per_query, p.speedup_vs_exact,
        p.mean_cells_probed, p.mean_items_scored);
  }

  if (quick) {
    // Cache-resident catalogues cannot carry a speedup gate; assert the
    // oracle property instead: every cell probed == the exact scan.
    for (size_t u = 0; u < num_users; ++u) {
      std::vector<TopKEntry> full;
      index.Query(static_cast<uint32_t>(u), kTopK, index.num_cells(), {},
                  &scratch, &full);
      TAXOREC_CHECK_MSG(full.size() == exact_lists[u].size(),
                        "full-probe list length mismatch");
      for (size_t i = 0; i < full.size(); ++i) {
        TAXOREC_CHECK_MSG(full[i].item == exact_lists[u][i].item &&
                              full[i].score == exact_lists[u][i].score,
                          "full-probe IVF diverged from the exact scan");
      }
    }
  } else {
    // The tentpole target: >= 10x exact QPS at recall@10 >= 0.95 on the
    // 1M-item catalogue, at some swept operating point.
    bool target_met = false;
    for (const SweepPoint& p : sweep) {
      target_met = target_met ||
                   (p.recall_at_10 >= 0.95 && p.speedup_vs_exact >= 10.0);
    }
    TAXOREC_CHECK_MSG(target_met,
                      "no swept nprobe reached recall@10 >= 0.95 at >= 10x "
                      "exact QPS");
  }

  const SweepPoint* gate = nullptr;
  for (const SweepPoint& p : sweep) {
    if (p.nprobe == kGateNprobe) gate = &p;
  }
  TAXOREC_CHECK_MSG(gate != nullptr, "nprobe-8 operating point missing");

  const double wall = Seconds(start);
  const bool wrote = bench::WriteObservabilityFiles(argc, argv);
  std::FILE* f = std::fopen("BENCH_retrieval.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(
      f,
      "{\"bench\": \"retrieval\", \"threads\": %d, "
      "\"hardware_concurrency\": %d,\n"
      " \"quick\": %s, \"items\": %zu, \"users\": %zu, \"k\": %zu,\n"
      " \"retrieval\": {\n"
      "  \"cells\": %zu, \"build_wall_s\": %.3f,\n"
      "  \"exact\": {\"seconds_per_query\": %.8f, \"qps\": %.1f},\n"
      "  \"ivf\": {\"nprobe\": %zu, \"recall_at_10\": %.4f, "
      "\"recall_loss_at_10\": %.4f, \"seconds_per_query\": %.8f, "
      "\"qps\": %.1f, \"speedup_vs_exact\": %.3f, "
      "\"mean_cells_probed\": %.2f, \"mean_items_scored\": %.1f},\n"
      "  \"sweep\": [",
      threads, HardwareThreads(), quick ? "true" : "false", num_items,
      num_users, kTopK, index.num_cells(), build_seconds, exact_spq,
      1.0 / exact_spq, gate->nprobe, gate->recall_at_10,
      std::max(0.01, 1.0 - gate->recall_at_10), gate->seconds_per_query,
      gate->qps, gate->speedup_vs_exact, gate->mean_cells_probed,
      gate->mean_items_scored);
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(
        f,
        "%s\n   {\"nprobe\": %zu, \"recall_at_10\": %.4f, "
        "\"seconds_per_query\": %.8f, \"qps\": %.1f, "
        "\"speedup_vs_exact\": %.3f, \"mean_cells_probed\": %.2f, "
        "\"mean_items_scored\": %.1f}",
        i == 0 ? "" : ",", p.nprobe, p.recall_at_10, p.seconds_per_query,
        p.qps, p.speedup_vs_exact, p.mean_cells_probed, p.mean_items_scored);
  }
  std::fprintf(
      f,
      "]},\n"
      " \"wall_seconds\": %.3f, \"peak_rss_bytes\": %llu,\n"
      " \"rusage\": %s,\n \"profile\": %s,\n \"metrics\": %s}\n",
      wall, static_cast<unsigned long long>(PeakRssBytes()),
      RusageJsonObject(SelfRusage()).c_str(), ProfileJsonArray().c_str(),
      MetricsRegistry::Instance().SnapshotJson().c_str());
  std::fclose(f);
  std::printf(
      "[bench] retrieval: threads=%d wall=%.2fs -> BENCH_retrieval.json\n",
      threads, wall);
  return wrote ? 0 : 1;
}

}  // namespace
}  // namespace taxorec

int main(int argc, char** argv) { return taxorec::Main(argc, argv); }
