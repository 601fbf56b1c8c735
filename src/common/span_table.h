// The per-thread span table behind every TraceSpan site (internal).
//
// Each thread that runs an armed span owns one ThreadSpans entry holding
// everything the span consumers record: the trace ring (common/trace.h)
// and the call-path tree (common/profiler.h). One registry lists the
// entries (trace.cc). The owning thread is the only writer; the entry's
// mutex only guards against a concurrent export or clear, so an armed span
// takes it uncontended, once on enter (when profiled) and once on exit.
#ifndef TAXOREC_COMMON_SPAN_TABLE_H_
#define TAXOREC_COMMON_SPAN_TABLE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace taxorec::internal {

struct TraceEvent {
  const char* name;
  uint64_t start_us;
  uint64_t dur_us;
};

/// One call-path node of a thread's profile tree. Trees only grow
/// (ClearProfile zeroes stats but keeps the structure), so the `cur`
/// cursor of an in-flight span never dangles.
struct SiteNode {
  explicit SiteNode(SiteNode* parent) : parent(parent) {}

  SiteNode* const parent;
  uint64_t calls = 0;
  uint64_t incl_us = 0;
  uint64_t min_us = std::numeric_limits<uint64_t>::max();
  uint64_t max_us = 0;
  // Keyed by site-name content (not pointer identity: equal literals are
  // not guaranteed to be merged across translation units). Heterogeneous
  // lookup keeps the armed hot path allocation-free after first visit.
  std::map<std::string, std::unique_ptr<SiteNode>, std::less<>> children;
};

struct ThreadSpans {
  explicit ThreadSpans(int tid) : tid(tid) {}

  std::mutex mu;
  const int tid;

  // Trace ring: oldest events are overwritten past capacity and counted.
  std::vector<TraceEvent> events;
  size_t next = 0;  // overwrite cursor after wrap
  uint64_t dropped = 0;

  // Call-path tree; `cur` is the innermost open profiled span.
  SiteNode root{nullptr};
  SiteNode* cur = &root;
};

/// Runs `fn` on every thread's entry, each under its lock.
void ForEachThreadSpans(const std::function<void(ThreadSpans&)>& fn);

}  // namespace taxorec::internal

#endif  // TAXOREC_COMMON_SPAN_TABLE_H_
