#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_set>

#include "common/check.h"
#include "math/rng.h"

namespace taxorec {
namespace {

// Users draw 1..kMaxInterests interest subtrees.
constexpr uint64_t kMaxInterests = 3;

// Builds the planted tag tree; fills parent (-1 for depth-1 roots), depth
// (1-based), and path-encoded names.
void BuildTree(const SyntheticConfig& cfg, Rng* rng,
               std::vector<int32_t>* parent, std::vector<int>* depth,
               std::vector<std::string>* names) {
  const size_t S = cfg.num_tags;
  parent->assign(S, -1);
  depth->assign(S, 1);
  names->assign(S, "");
  TAXOREC_CHECK(cfg.num_roots >= 1 && static_cast<size_t>(cfg.num_roots) <= S);

  std::deque<uint32_t> frontier;
  std::vector<int> child_count(S, 0);
  size_t next = 0;
  for (int r = 0; r < cfg.num_roots && next < S; ++r, ++next) {
    (*names)[next] = "T" + std::to_string(r);
    frontier.push_back(static_cast<uint32_t>(next));
  }
  while (next < S) {
    TAXOREC_CHECK(!frontier.empty());
    const uint32_t node = frontier.front();
    frontier.pop_front();
    const int jitter = static_cast<int>(rng->Uniform(3)) - 1;  // -1..1
    const int kids = std::max(1, cfg.branching + jitter);
    for (int k = 0; k < kids && next < S; ++k, ++next) {
      (*parent)[next] = static_cast<int32_t>(node);
      (*depth)[next] = (*depth)[node] + 1;
      (*names)[next] =
          (*names)[node] + "." + std::to_string(child_count[node]++);
      frontier.push_back(static_cast<uint32_t>(next));
    }
  }
}

}  // namespace

Dataset GenerateSynthetic(const SyntheticConfig& cfg) {
  TAXOREC_CHECK(cfg.num_users > 0 && cfg.num_items > 0 && cfg.num_tags > 0);
  Rng rng(cfg.seed);

  Dataset data;
  data.name = cfg.name;
  data.num_users = cfg.num_users;
  data.num_items = cfg.num_items;
  data.num_tags = cfg.num_tags;

  std::vector<int> depth;
  BuildTree(cfg, &rng, &data.tag_parent, &depth, &data.tag_names);
  const size_t S = cfg.num_tags;

  // Each item picks a primary tag, biased toward deeper (more specific)
  // tags: weight = depth^2.
  std::vector<double> tag_weight(S);
  for (size_t t = 0; t < S; ++t) {
    tag_weight[t] = static_cast<double>(depth[t]) * static_cast<double>(depth[t]);
  }
  std::vector<uint32_t> primary_tag(cfg.num_items);
  for (size_t v = 0; v < cfg.num_items; ++v) {
    const uint32_t t = static_cast<uint32_t>(rng.Categorical(tag_weight));
    primary_tag[v] = t;
    data.item_tags.emplace_back(static_cast<uint32_t>(v), t);
    // Walk ancestors; each is attached independently with probability
    // ancestor_tag_prob (multi-level labeling, cf. Fig. 1).
    for (int32_t a = data.tag_parent[t]; a >= 0; a = data.tag_parent[a]) {
      if (rng.Bernoulli(cfg.ancestor_tag_prob)) {
        data.item_tags.emplace_back(static_cast<uint32_t>(v),
                                    static_cast<uint32_t>(a));
      }
    }
    if (rng.Bernoulli(cfg.noise_tag_prob)) {
      data.item_tags.emplace_back(static_cast<uint32_t>(v),
                                  static_cast<uint32_t>(rng.Uniform(S)));
    }
  }

  // Power-law popularity over a random permutation of items.
  std::vector<uint32_t> perm(cfg.num_items);
  for (size_t v = 0; v < cfg.num_items; ++v) perm[v] = static_cast<uint32_t>(v);
  rng.Shuffle(perm.begin(), perm.end());
  std::vector<double> popularity(cfg.num_items);
  for (size_t rank = 0; rank < cfg.num_items; ++rank) {
    popularity[perm[rank]] =
        std::pow(static_cast<double>(rank + 1), -cfg.popularity_alpha);
  }

  // Precompute, for each tag, the popularity-weighted list of items whose
  // primary tag lies in that tag's subtree. Subtree membership: walk up
  // from the primary tag.
  std::vector<std::vector<uint32_t>> subtree_items(S);
  std::vector<std::vector<double>> subtree_weights(S);
  for (size_t v = 0; v < cfg.num_items; ++v) {
    for (int32_t t = static_cast<int32_t>(primary_tag[v]); t >= 0;
         t = data.tag_parent[t]) {
      subtree_items[t].push_back(static_cast<uint32_t>(v));
      subtree_weights[t].push_back(popularity[v]);
    }
  }

  // Users: interests are depth-1 or depth-2 tags (subtree roots with
  // non-empty item lists).
  std::vector<uint32_t> interest_pool;
  for (size_t t = 0; t < S; ++t) {
    if (depth[t] <= 2 && !subtree_items[t].empty()) {
      interest_pool.push_back(static_cast<uint32_t>(t));
    }
  }
  TAXOREC_CHECK(!interest_pool.empty());

  int64_t clock = 0;
  std::vector<double> all_item_weights = popularity;
  for (size_t u = 0; u < cfg.num_users; ++u) {
    const int num_interests = 1 + static_cast<int>(rng.Uniform(kMaxInterests));
    std::vector<uint32_t> interests;
    for (int i = 0; i < num_interests; ++i) {
      interests.push_back(interest_pool[rng.Uniform(interest_pool.size())]);
    }
    // Per-user tag affinity around the configured mean.
    double affinity = cfg.tag_affinity_mean + 0.3 * rng.NextGaussian();
    affinity = std::clamp(affinity, 0.0, 1.0);

    // Interaction count: exponential around the mean, floor of 6 so the
    // temporal split always yields test items.
    const double raw =
        -cfg.mean_interactions_per_user * std::log(1.0 - rng.NextDouble());
    const size_t n_inter = std::max<size_t>(6, static_cast<size_t>(raw));

    std::unordered_set<uint32_t> seen;
    size_t attempts = 0;
    while (seen.size() < n_inter && attempts < n_inter * 8) {
      ++attempts;
      uint32_t item;
      if (rng.Bernoulli(affinity)) {
        const uint32_t root = interests[rng.Uniform(interests.size())];
        const auto& pool = subtree_items[root];
        item = pool[rng.Categorical(subtree_weights[root])];
      } else {
        item = static_cast<uint32_t>(rng.Categorical(all_item_weights));
      }
      if (!seen.insert(item).second) continue;
      Interaction x;
      x.user = static_cast<uint32_t>(u);
      x.item = item;
      x.timestamp = clock++;
      data.interactions.push_back(x);
    }
  }

  // Dedup item-tag edges.
  std::sort(data.item_tags.begin(), data.item_tags.end());
  data.item_tags.erase(
      std::unique(data.item_tags.begin(), data.item_tags.end()),
      data.item_tags.end());

  TAXOREC_CHECK(data.Valid());
  return data;
}

}  // namespace taxorec
