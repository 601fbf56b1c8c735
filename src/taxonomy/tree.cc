#include "taxonomy/tree.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <unordered_set>

#include "common/check.h"

namespace taxorec {

Taxonomy::Taxonomy(std::vector<uint32_t> all_tags) {
  Node root;
  root.parent = -1;
  root.depth = 0;
  root.member_tags = std::move(all_tags);
  root.tag_scores.assign(root.member_tags.size(), 1.0);
  nodes_.push_back(std::move(root));
}

int32_t Taxonomy::AddNode(int32_t parent, std::vector<uint32_t> member_tags,
                          std::vector<double> tag_scores) {
  TAXOREC_CHECK(parent >= 0 && static_cast<size_t>(parent) < nodes_.size());
  TAXOREC_CHECK(member_tags.size() == tag_scores.size());
  Node n;
  n.parent = parent;
  n.depth = nodes_[parent].depth + 1;
  n.member_tags = std::move(member_tags);
  n.tag_scores = std::move(tag_scores);
  const int32_t id = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(std::move(n));
  nodes_[parent].children.push_back(id);
  return id;
}

int Taxonomy::MaxDepth() const {
  int d = 0;
  for (const auto& n : nodes_) d = std::max(d, n.depth);
  return d;
}

std::vector<uint32_t> Taxonomy::RetainedTags(int32_t id) const {
  TAXOREC_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
  const Node& n = nodes_[id];
  std::unordered_set<uint32_t> in_children;
  for (int32_t c : n.children) {
    for (uint32_t t : nodes_[c].member_tags) in_children.insert(t);
  }
  std::vector<uint32_t> out;
  for (uint32_t t : n.member_tags) {
    if (in_children.find(t) == in_children.end()) out.push_back(t);
  }
  return out;
}

std::string Taxonomy::ToString(const std::vector<std::string>& tag_names,
                               int max_depth,
                               size_t max_tags_per_node) const {
  std::ostringstream out;
  auto tag_label = [&](uint32_t t) -> std::string {
    if (t < tag_names.size() && !tag_names[t].empty()) return tag_names[t];
    return "#" + std::to_string(t);
  };
  // Depth-first walk.
  std::vector<std::pair<int32_t, int>> stack = {{0, 0}};
  while (!stack.empty()) {
    const auto [id, depth] = stack.back();
    stack.pop_back();
    if (depth > max_depth) continue;
    const Node& n = nodes_[id];
    for (int i = 0; i < depth; ++i) out << "  ";
    const auto retained = RetainedTags(id);
    out << (id == 0 ? "root" : "node" + std::to_string(id)) << " [|tags|="
        << n.member_tags.size() << "] retained: {";
    for (size_t i = 0; i < retained.size() && i < max_tags_per_node; ++i) {
      if (i > 0) out << ", ";
      out << tag_label(retained[i]);
    }
    if (retained.size() > max_tags_per_node) out << ", ...";
    out << "}\n";
    // Push children in reverse so output order matches insertion order.
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      stack.emplace_back(*it, depth + 1);
    }
  }
  return out.str();
}

Taxonomy TaxonomyFromParents(const std::vector<int32_t>& parent) {
  const size_t S = parent.size();
  // children[t] = direct child tags of t; top-level tags under the root.
  std::vector<std::vector<uint32_t>> children(S);
  std::vector<uint32_t> top;
  for (size_t t = 0; t < S; ++t) {
    const int32_t p = parent[t];
    TAXOREC_CHECK(p < static_cast<int32_t>(S));
    if (p < 0) {
      top.push_back(static_cast<uint32_t>(t));
    } else {
      children[p].push_back(static_cast<uint32_t>(t));
    }
  }
  // Subtree member sets via DFS (parents precede children is not assumed).
  std::vector<std::vector<uint32_t>> subtree(S);
  std::function<void(uint32_t)> collect = [&](uint32_t t) {
    subtree[t] = {t};
    for (uint32_t c : children[t]) {
      collect(c);
      subtree[t].insert(subtree[t].end(), subtree[c].begin(),
                        subtree[c].end());
    }
  };
  for (uint32_t t : top) collect(t);

  std::vector<uint32_t> all(S);
  for (size_t t = 0; t < S; ++t) all[t] = static_cast<uint32_t>(t);
  Taxonomy taxo(std::move(all));
  // BFS: add a node for every tag that has children (its subtree as member
  // set); single-tag subtrees become leaf nodes directly under the parent.
  std::function<void(int32_t, uint32_t)> add = [&](int32_t parent_node,
                                                   uint32_t tag) {
    const int32_t node = taxo.AddNode(
        parent_node, subtree[tag],
        std::vector<double>(subtree[tag].size(), 1.0));
    for (uint32_t c : children[tag]) {
      if (!children[c].empty()) {
        add(node, c);
      } else if (children[tag].size() > 0 && subtree[tag].size() > 1) {
        // Leaf child: its own singleton node keeps the tree faithful.
        taxo.AddNode(node, {c}, {1.0});
      }
    }
  };
  for (uint32_t t : top) add(taxo.root(), t);
  return taxo;
}

}  // namespace taxorec
