// Table II reproduction: overall Recall@{10,20} / NDCG@{10,20} of all 14
// baselines plus TaxoRec on the four dataset profiles, with Wilcoxon
// signed-rank significance stars on TaxoRec's improvements (5% level, as in
// the paper).
//
// Shape to check against the paper: TaxoRec best on every metric/dataset;
// hyperbolic models beat their Euclidean counterparts (HyperML > CML,
// HGCF > LightGCN > NGCF on the sparse sets); tag-based models beat their
// tag-free bases; graph models dominate plain MF.
#include <cstdio>
#include <map>

#include "bench_common.h"
#include "stats/wilcoxon.h"

int main(int argc, char** argv) {
  using namespace taxorec;
  bench::BenchRun run("table2_overall", argc, argv);
  ProtocolOptions popts;
  popts.num_seeds = bench::NumSeeds();

  std::printf(
      "Table II: overall performance (%%), mean±std over %d seeds; '*' = "
      "TaxoRec significantly better (Wilcoxon signed-rank over per-user "
      "NDCG@10, p<0.05)\n\n",
      popts.num_seeds);

  for (const auto& profile : ProfileNames()) {
    const auto pd = bench::LoadProfile(profile);
    std::printf("=== %s ===\n", profile.c_str());
    std::printf("%-10s %12s %12s %12s %12s %8s\n", "Method", "Recall@10",
                "Recall@20", "NDCG@10", "NDCG@20", "sec");
    bench::PrintRule(72);

    // Per-model grid search with validation-based selection, per dataset —
    // the paper's §V-A4 protocol.
    std::map<std::string, ModelRunResult> results;
    for (const auto& name : RegisteredModelNames()) {
      results.emplace(
          name, RunProtocolGrid(
                    [&name](const ModelConfig& c) { return MakeModel(name, c); },
                    name, bench::GridFor(name), pd.split, popts));
    }
    const ModelRunResult& taxo = results.at("TaxoRec");
    for (const auto& name : RegisteredModelNames()) {
      const ModelRunResult& r = results.at(name);
      const char* star = "";
      if (name != "TaxoRec" && r.primary_k == taxo.primary_k &&
          r.per_user_ndcg.size() == taxo.per_user_ndcg.size()) {
        const auto w =
            stats::WilcoxonSignedRank(taxo.per_user_ndcg, r.per_user_ndcg);
        if (w.p_greater < 0.05) star = "*";
      }
      std::printf("%-10s %12s %12s %12s %12s %7.1fs %s\n", r.model.c_str(),
                  bench::PercentCell(r.recall_mean[0], r.recall_std[0]).c_str(),
                  bench::PercentCell(r.recall_mean[1], r.recall_std[1]).c_str(),
                  bench::PercentCell(r.ndcg_mean[0], r.ndcg_std[0]).c_str(),
                  bench::PercentCell(r.ndcg_mean[1], r.ndcg_std[1]).c_str(),
                  r.train_seconds, star);
    }
    // Count how many of the 14 baselines TaxoRec beats on Recall@10.
    int beaten = 0;
    for (const auto& [name, r] : results) {
      if (name != "TaxoRec" && taxo.recall_mean[0] > r.recall_mean[0]) {
        ++beaten;
      }
    }
    std::printf("TaxoRec beats %d/14 baselines on Recall@10\n\n", beaten);
  }
  return 0;
}
