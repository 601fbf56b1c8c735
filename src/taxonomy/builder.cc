#include "taxonomy/builder.h"
#include <algorithm>

#include <deque>

#include "common/check.h"
#include "taxonomy/scoring.h"

namespace taxorec {
namespace {

// Recursion depth cap of the top-down construction.
constexpr int kMaxDepth = 4;
// Safety cap on Algorithm 1's refinement loop.
constexpr int kMaxRefineIters = 10;

// Runs Algorithm 1 on the member tags of `node_id`: returns the K final
// clusters (some possibly empty) with their scores.
struct SplitResult {
  std::vector<std::vector<uint32_t>> clusters;
  std::vector<std::vector<double>> scores;
};

SplitResult SplitNode(const std::vector<uint32_t>& members,
                      const Matrix& tag_embeddings,
                      const TagScoringContext& score_ctx,
                      const TaxonomyBuildConfig& config, Rng* rng) {
  SplitResult out;
  std::vector<uint32_t> t_sub = members;  // line 1: T_sub <- T
  for (int round = 0; round < kMaxRefineIters; ++round) {
    if (t_sub.size() < static_cast<size_t>(config.K)) break;
    // Line 3: Poincaré K-means over the current subset.
    const KMeansResult km =
        PoincareKMeans(tag_embeddings, t_sub, config.K, rng, config.kmeans);
    std::vector<std::vector<uint32_t>> clusters(config.K);
    for (size_t i = 0; i < t_sub.size(); ++i) {
      clusters[km.assignment[i]].push_back(t_sub[i]);
    }
    // Lines 4–8: score each tag, drop generals. The push-up decision uses
    // the structure factor stru(t, G_k) relative to the cluster's best:
    // stru is what separates "concentrated in this cluster" (a specific
    // tag) from "spread across every sibling" (a general tag such as a
    // subtree root seen at its own node's split). The combined Eq. 7 score
    // is still attached to the kept tags (it weights the regularizer), but
    // its con factor is a log-frequency ratio whose absolute scale depends
    // on corpus size, so thresholding s directly inverts the push-up at
    // small scale (see DESIGN.md §4). The relative cut keeps the paper's
    // delta grid {0.25, 0.5, 0.75} meaningful at any dataset size.
    std::vector<std::vector<double>> stru;
    auto scores = ScorePartition(score_ctx, clusters, &stru);
    std::vector<std::vector<uint32_t>> kept(config.K);
    std::vector<std::vector<double>> kept_scores(config.K);
    for (int k = 0; k < config.K; ++k) {
      double max_stru = 0.0;
      for (double s : stru[k]) max_stru = std::max(max_stru, s);
      const double cut = config.delta * max_stru;
      for (size_t i = 0; i < clusters[k].size(); ++i) {
        if (!config.adaptive || stru[k][i] >= cut) {
          kept[k].push_back(clusters[k][i]);
          kept_scores[k].push_back(scores[k][i]);
        }
      }
    }
    // Line 9: T'_sub = union of kept clusters.
    std::vector<uint32_t> t_sub_next;
    for (const auto& c : kept) {
      t_sub_next.insert(t_sub_next.end(), c.begin(), c.end());
    }
    out.clusters = std::move(kept);
    out.scores = std::move(kept_scores);
    // Lines 10–12: stop when stable.
    if (t_sub_next.size() == t_sub.size()) break;
    t_sub = std::move(t_sub_next);
  }
  return out;
}

}  // namespace

Taxonomy BuildTaxonomy(const Matrix& tag_embeddings,
                       const CsrMatrix& item_tags, const CsrMatrix& tag_items,
                       const TaxonomyBuildConfig& config) {
  TAXOREC_CHECK(config.K >= 2);
  TAXOREC_CHECK(item_tags.cols() == tag_embeddings.rows());
  Rng rng(config.seed);
  TagScoringContext score_ctx{&item_tags, &tag_items};

  std::vector<uint32_t> all_tags(tag_embeddings.rows());
  for (size_t t = 0; t < all_tags.size(); ++t) {
    all_tags[t] = static_cast<uint32_t>(t);
  }
  Taxonomy taxo(std::move(all_tags));

  std::deque<int32_t> queue = {taxo.root()};
  while (!queue.empty()) {
    const int32_t id = queue.front();
    queue.pop_front();
    // Copy: AddNode below may reallocate the node vector.
    const std::vector<uint32_t> members = taxo.node(id).member_tags;
    const int depth = taxo.node(id).depth;
    if (depth >= kMaxDepth) continue;
    if (members.size() < config.min_node_size ||
        members.size() < static_cast<size_t>(config.K)) {
      continue;
    }
    const SplitResult split =
        SplitNode(members, tag_embeddings, score_ctx, config, &rng);
    // Splitting is useful only if at least two non-empty children emerged;
    // otherwise the node stays a leaf.
    size_t nonempty = 0;
    for (const auto& c : split.clusters) nonempty += c.empty() ? 0 : 1;
    if (nonempty < 2) continue;
    for (size_t k = 0; k < split.clusters.size(); ++k) {
      if (split.clusters[k].empty()) continue;
      // A child identical to the parent would recurse forever.
      if (split.clusters[k].size() == members.size()) continue;
      const int32_t child =
          taxo.AddNode(id, split.clusters[k], split.scores[k]);
      queue.push_back(child);
    }
  }
  return taxo;
}

}  // namespace taxorec
