// Tag taxonomy tree produced by the adaptive clustering algorithm (§IV-C).
//
// Node semantics: `member_tags` is the tag set handled at that node (the
// cluster G_k as produced by Algorithm 1 before its own split). Tags that
// Algorithm 1 judged "general" (score < delta) stay at the node and do not
// appear in any child's member set; RetainedTags() recovers them. The root
// (node 0) holds every tag.
#ifndef TAXOREC_TAXONOMY_TREE_H_
#define TAXOREC_TAXONOMY_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace taxorec {

class Taxonomy {
 public:
  struct Node {
    int32_t parent = -1;
    int depth = 0;  // root = 0
    std::vector<int32_t> children;
    std::vector<uint32_t> member_tags;
    /// Representation-aware score s(t, G_k) aligned with member_tags
    /// (1.0 at the root, where no sibling context exists).
    std::vector<double> tag_scores;
  };

  /// Creates a taxonomy whose root holds `all_tags`.
  explicit Taxonomy(std::vector<uint32_t> all_tags);

  /// Adds a child of `parent` with the given members/scores; returns its id.
  int32_t AddNode(int32_t parent, std::vector<uint32_t> member_tags,
                  std::vector<double> tag_scores);

  size_t num_nodes() const { return nodes_.size(); }
  const Node& node(int32_t id) const { return nodes_[id]; }
  const std::vector<Node>& nodes() const { return nodes_; }

  int32_t root() const { return 0; }

  /// Maximum node depth (root = 0).
  int MaxDepth() const;

  /// Tags of `id` that do not belong to any child (the "general" tags kept
  /// at this level; for leaves this is the full member set).
  std::vector<uint32_t> RetainedTags(int32_t id) const;

  /// Pretty-prints the tree up to `max_depth` with up to `max_tags_per_node`
  /// tag names per node (names optional; indices used when absent).
  std::string ToString(const std::vector<std::string>& tag_names,
                       int max_depth = 3, size_t max_tags_per_node = 6) const;

 private:
  std::vector<Node> nodes_;
};

/// Builds a Taxonomy from a parent array (parent[t] = parent tag of t, or
/// -1 for top level) — e.g. a pre-existing taxonomy supplied with the data,
/// the "incorporation of existing taxonomies" extension the paper's
/// conclusion sketches. Every tag with children becomes a node whose member
/// set is its subtree (itself retained at that node); top-level tags hang
/// off the root. Scores are uniform.
Taxonomy TaxonomyFromParents(const std::vector<int32_t>& parent);

}  // namespace taxorec

#endif  // TAXOREC_TAXONOMY_TREE_H_
