#include "common/profiler.h"

#include <fstream>
#include <limits>
#include <map>
#include <utility>

#include "common/json.h"
#include "common/span_table.h"
#include "common/trace.h"

namespace taxorec {
namespace {

void ZeroStats(internal::SiteNode* node) {
  node->calls = 0;
  node->incl_us = 0;
  node->min_us = std::numeric_limits<uint64_t>::max();
  node->max_us = 0;
  for (auto& [name, child] : node->children) ZeroStats(child.get());
}

/// Merge accumulator; std::map keeps children name-sorted so the merged
/// tree is deterministic regardless of thread enumeration order.
struct MergeNode {
  uint64_t calls = 0;
  uint64_t incl_us = 0;
  uint64_t min_us = std::numeric_limits<uint64_t>::max();
  uint64_t max_us = 0;
  std::map<std::string, MergeNode> children;
};

void Accumulate(const internal::SiteNode& src, MergeNode* dst) {
  dst->calls += src.calls;
  dst->incl_us += src.incl_us;
  if (src.calls > 0) {
    if (src.min_us < dst->min_us) dst->min_us = src.min_us;
    if (src.max_us > dst->max_us) dst->max_us = src.max_us;
  }
  for (const auto& [name, child] : src.children) {
    Accumulate(*child, &dst->children[name]);
  }
}

/// Converts the merge tree into the public shape, pruning sites with no
/// recorded calls anywhere beneath them (stale structure after a clear).
ProfileNode ToProfile(const std::string& name, const MergeNode& m) {
  ProfileNode out;
  out.name = name;
  out.calls = m.calls;
  out.inclusive_us = m.incl_us;
  out.min_us = m.calls > 0 ? m.min_us : 0;
  out.max_us = m.max_us;
  uint64_t children_incl = 0;
  for (const auto& [child_name, child] : m.children) {
    ProfileNode c = ToProfile(child_name, child);
    if (c.calls == 0 && c.children.empty()) continue;
    children_incl += c.inclusive_us;
    out.children.push_back(std::move(c));
  }
  // Timer granularity can make nested spans sum past the parent; clamp.
  out.self_us =
      out.inclusive_us > children_incl ? out.inclusive_us - children_incl : 0;
  return out;
}

void RenderJsonLines(const ProfileNode& node, const std::string& prefix,
                     std::vector<std::string>* out) {
  const std::string path =
      prefix.empty() ? node.name : prefix + "/" + node.name;
  JsonWriter w;
  w.BeginObject();
  w.Key("path").String(path);
  w.Key("calls").Uint(node.calls);
  w.Key("inclusive_us").Uint(node.inclusive_us);
  w.Key("self_us").Uint(node.self_us);
  w.Key("min_us").Uint(node.min_us);
  w.Key("max_us").Uint(node.max_us);
  w.EndObject();
  out->push_back(w.TakeString());
  for (const ProfileNode& child : node.children) {
    RenderJsonLines(child, path, out);
  }
}

}  // namespace

bool ProfilingEnabled() {
  return (internal::g_instrument_mode.load(std::memory_order_relaxed) &
          internal::kProfileArmed) != 0;
}

void StartProfiling() {
  internal::TraceNowMicros();  // pin the epoch before the first span
  internal::g_instrument_mode.fetch_or(internal::kProfileArmed,
                                       std::memory_order_relaxed);
}

void StopProfiling() {
  internal::g_instrument_mode.fetch_and(~internal::kProfileArmed,
                                        std::memory_order_relaxed);
}

void ClearProfile() {
  internal::ForEachThreadSpans([](internal::ThreadSpans& t) {
    ZeroStats(&t.root);
    t.cur = &t.root;
  });
}

ProfileNode MergedProfile() {
  MergeNode root;
  internal::ForEachThreadSpans(
      [&](internal::ThreadSpans& t) { Accumulate(t.root, &root); });
  ProfileNode out = ToProfile("", root);
  out.calls = 0;  // the root is synthetic, not a site
  out.inclusive_us = 0;
  out.self_us = 0;
  out.min_us = 0;
  out.max_us = 0;
  return out;
}

std::vector<std::string> ProfileJsonLines() {
  const ProfileNode root = MergedProfile();
  std::vector<std::string> lines;
  for (const ProfileNode& child : root.children) {
    RenderJsonLines(child, "", &lines);
  }
  return lines;
}

std::string ProfileJsonArray() {
  std::string out = "[";
  bool first = true;
  for (const std::string& line : ProfileJsonLines()) {
    if (!first) out += ",";
    first = false;
    out += line;
  }
  out += "]";
  return out;
}

Status WriteProfileJsonl(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot write profile file: " + path);
  for (const std::string& line : ProfileJsonLines()) {
    out << line << "\n";
  }
  out.flush();
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

}  // namespace taxorec
