#include "taxonomy/scoring.h"

#include <cmath>

#include "common/check.h"

namespace taxorec {
namespace {

// Caps rank values before exponentiation in the stru softmax.
constexpr double kMaxRank = 50.0;
// BM25 k1 and b of the rank (Eq. 6), the paper's empirical setting.
constexpr double kBm25K1 = 1.2;
constexpr double kBm25B = 0.5;

struct ClusterStats {
  std::vector<uint8_t> item_in_ek;  // num_items flags
  double num_items_ek = 0.0;        // |E_k|
  double tf_ek = 0.0;               // total tag occurrences over E_k
};

}  // namespace

std::vector<std::vector<double>> ScorePartition(
    const TagScoringContext& ctx,
    const std::vector<std::vector<uint32_t>>& partition,
    std::vector<std::vector<double>>* stru_out) {
  TAXOREC_CHECK(ctx.item_tags != nullptr && ctx.tag_items != nullptr);
  const size_t K = partition.size();
  const size_t num_items = ctx.item_tags->rows();

  // E_k: items are *partitioned* across the sibling clusters (TaxoGen-style
  // sub-corpora): each item carrying at least one partition tag is assigned
  // to the cluster with the largest idf-weighted tag overlap, so rare
  // (specific) tags dominate the assignment and general tags spread across
  // all E_k. tf(E_k) = total tag occurrences among items of E_k.
  std::vector<double> idf_weight(ctx.tag_items->rows(), 0.0);
  for (size_t t = 0; t < ctx.tag_items->rows(); ++t) {
    const double deg = static_cast<double>(ctx.tag_items->RowNnz(t));
    if (deg > 0.0) idf_weight[t] = 1.0 / deg;
  }
  std::vector<int> cluster_of_tag(ctx.tag_items->rows(), -1);
  for (size_t k = 0; k < K; ++k) {
    for (uint32_t t : partition[k]) cluster_of_tag[t] = static_cast<int>(k);
  }
  std::vector<ClusterStats> stats(K);
  for (size_t k = 0; k < K; ++k) stats[k].item_in_ek.assign(num_items, 0);
  for (size_t v = 0; v < num_items; ++v) {
    std::vector<double> overlap(K, 0.0);
    bool any = false;
    for (uint32_t t : ctx.item_tags->RowCols(v)) {
      const int k = cluster_of_tag[t];
      if (k < 0) continue;
      overlap[k] += idf_weight[t];
      any = true;
    }
    if (!any) continue;
    size_t best = 0;
    for (size_t k = 1; k < K; ++k) {
      if (overlap[k] > overlap[best]) best = k;
    }
    stats[best].item_in_ek[v] = 1;
    stats[best].num_items_ek += 1.0;
    stats[best].tf_ek += static_cast<double>(ctx.item_tags->RowNnz(v));
  }

  // tf(t, E_k) for a tag t and cluster k: number of items in E_k carrying t.
  auto tf_t_ek = [&](uint32_t t, size_t k) {
    double count = 0.0;
    for (uint32_t v : ctx.tag_items->RowCols(t)) {
      if (stats[k].item_in_ek[v]) count += 1.0;
    }
    return count;
  };

  // BM25-style rank (Eq. 6) with idf computed in the E_k context.
  auto rank = [&](uint32_t t, size_t k) {
    const auto& s = stats[k];
    if (s.num_items_ek <= 0.0 || s.tf_ek <= 0.0) return 0.0;
    const double tf = tf_t_ek(t, k);
    if (tf <= 0.0) return 0.0;
    const double idf =
        std::log((s.tf_ek - tf + 0.5) / (tf + 0.5) + 1.0);
    const double avgdl = s.tf_ek / s.num_items_ek;
    const double denom =
        tf + kBm25K1 * (1.0 - kBm25B + kBm25B * s.tf_ek / avgdl);
    double r = idf * tf * (kBm25K1 + 1.0) / denom;
    if (r > kMaxRank) r = kMaxRank;
    return r;
  };

  std::vector<std::vector<double>> scores(K);
  if (stru_out != nullptr) stru_out->assign(K, {});
  for (size_t k = 0; k < K; ++k) {
    scores[k].resize(partition[k].size());
    if (stru_out != nullptr) (*stru_out)[k].resize(partition[k].size());
    for (size_t i = 0; i < partition[k].size(); ++i) {
      const uint32_t t = partition[k][i];
      // Context factor (Eq. 4).
      double con = 0.0;
      if (stats[k].tf_ek > 1.0) {
        con = std::log(tf_t_ek(t, k) + 1.0) / std::log(stats[k].tf_ek);
      }
      if (con > 1.0) con = 1.0;
      // Structure factor (Eq. 5): softmax of ranks over sibling clusters.
      double denom = 1.0;
      for (size_t j = 0; j < K; ++j) denom += std::exp(rank(t, j));
      const double stru = std::exp(rank(t, k)) / denom;
      scores[k][i] = std::sqrt(con * stru);
      if (stru_out != nullptr) (*stru_out)[k][i] = stru;
    }
  }
  return scores;
}

}  // namespace taxorec
