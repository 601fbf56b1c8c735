#include "common/trace.h"

#include <chrono>
#include <fstream>
#include <mutex>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "common/span_table.h"

namespace taxorec {
namespace internal {

std::atomic<uint32_t> g_instrument_mode{0};

namespace {

// Per-thread ring: bounded memory regardless of run length. 16Ki events
// (~384 KiB) keeps hours of coarse spans; `dropped` counts overwrites.
constexpr size_t kRingCapacity = 1 << 14;

struct SpanRegistry {
  std::mutex mu;
  std::vector<ThreadSpans*> threads;  // leaked; threads may outlive drains
};

SpanRegistry& Registry() {
  static SpanRegistry* registry = new SpanRegistry();
  return *registry;
}

ThreadSpans* CurrentThreadSpans() {
  thread_local ThreadSpans* spans = [] {
    SpanRegistry& reg = Registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    auto* t = new ThreadSpans(static_cast<int>(reg.threads.size()));
    reg.threads.push_back(t);
    return t;
  }();
  return spans;
}

void RecordEvent(ThreadSpans* t, const TraceEvent& e) {
  if (t->events.size() < kRingCapacity) {
    t->events.push_back(e);
    return;
  }
  t->events[t->next] = e;
  t->next = (t->next + 1) % kRingCapacity;
  ++t->dropped;
  // Overwrites can happen at span rate under load; surface the first and
  // then one per ring's worth so long runs don't flood stderr (the export
  // still reports the exact total).
  TAXOREC_LOG_EVERY_N(WARN, kRingCapacity)
      << "trace ring overwriting oldest events" << Kv("tid", t->tid)
      << Kv("dropped", t->dropped) << Kv("ring_capacity", kRingCapacity);
}

/// Folds one completed call into the innermost open node and pops it.
void FoldExit(ThreadSpans* t, uint64_t dur_us) {
  SiteNode* node = t->cur;
  if (node->parent == nullptr) return;  // stack reset by ClearProfile
  ++node->calls;
  node->incl_us += dur_us;
  if (dur_us < node->min_us) node->min_us = dur_us;
  if (dur_us > node->max_us) node->max_us = dur_us;
  t->cur = node->parent;
}

}  // namespace

void ForEachThreadSpans(const std::function<void(ThreadSpans&)>& fn) {
  SpanRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (ThreadSpans* t : reg.threads) {
    std::lock_guard<std::mutex> tl(t->mu);
    fn(*t);
  }
}

uint64_t TraceNowMicros() {
  static const auto start = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

void ProfileEnter(const char* name) {
  ThreadSpans* t = CurrentThreadSpans();
  std::lock_guard<std::mutex> lock(t->mu);
  auto it = t->cur->children.find(std::string_view(name));
  if (it == t->cur->children.end()) {
    it = t->cur->children
             .emplace(std::string(name), std::make_unique<SiteNode>(t->cur))
             .first;
  }
  t->cur = it->second.get();
}

void ProfileExit(const char* /*name*/, uint64_t dur_us) {
  ThreadSpans* t = CurrentThreadSpans();
  std::lock_guard<std::mutex> lock(t->mu);
  FoldExit(t, dur_us);
}

void SpanExit(uint32_t mode, const char* name, uint64_t start_us) {
  ThreadSpans* t = CurrentThreadSpans();
  std::lock_guard<std::mutex> lock(t->mu);
  const uint64_t dur_us = TraceNowMicros() - start_us;
  if (mode & kTraceArmed) RecordEvent(t, {name, start_us, dur_us});
  if (mode & kProfileArmed) FoldExit(t, dur_us);
}

}  // namespace internal

void RecordManualSpan(const char* name, uint64_t start_us, uint64_t dur_us) {
  if (!TracingEnabled()) return;
  internal::ThreadSpans* t = internal::CurrentThreadSpans();
  std::lock_guard<std::mutex> lock(t->mu);
  internal::RecordEvent(t, {name, start_us, dur_us});
}

void StartTracing() {
  internal::TraceNowMicros();  // pin the epoch before the first span
  internal::g_instrument_mode.fetch_or(internal::kTraceArmed,
                                       std::memory_order_relaxed);
}

void StopTracing() {
  internal::g_instrument_mode.fetch_and(~internal::kTraceArmed,
                                        std::memory_order_relaxed);
}

void ClearTraceBuffers() {
  internal::ForEachThreadSpans([](internal::ThreadSpans& t) {
    t.events.clear();
    t.next = 0;
    t.dropped = 0;
  });
}

size_t TraceEventCount() {
  size_t n = 0;
  internal::ForEachThreadSpans(
      [&](internal::ThreadSpans& t) { n += t.events.size(); });
  return n;
}

uint64_t TraceDroppedCount() {
  uint64_t n = 0;
  internal::ForEachThreadSpans(
      [&](internal::ThreadSpans& t) { n += t.dropped; });
  return n;
}

size_t TraceRingCapacity() { return internal::kRingCapacity; }

std::string ChromeTraceJson() {
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  uint64_t dropped = 0;
  w.Key("traceEvents").BeginArray();
  internal::ForEachThreadSpans([&](internal::ThreadSpans& t) {
    dropped += t.dropped;
    for (const auto& e : t.events) {
      w.BeginObject();
      w.Key("name").String(e.name);
      w.Key("cat").String("taxorec");
      w.Key("ph").String("X");
      w.Key("pid").Int(1);
      w.Key("tid").Int(t.tid);
      w.Key("ts").Uint(e.start_us);
      w.Key("dur").Uint(e.dur_us);
      w.EndObject();
    }
    // Ring overflow is surfaced in-band: one metadata event per thread
    // that lost events, so a viewer shows the gap instead of silently
    // presenting a truncated timeline.
    if (t.dropped > 0) {
      w.BeginObject();
      w.Key("name").String("dropped_events");
      w.Key("cat").String("taxorec");
      w.Key("ph").String("M");
      w.Key("pid").Int(1);
      w.Key("tid").Int(t.tid);
      w.Key("args").BeginObject();
      w.Key("dropped").Uint(t.dropped);
      w.EndObject();
      w.EndObject();
    }
  });
  w.EndArray();
  w.Key("droppedEvents").Uint(dropped);
  w.EndObject();
  return w.TakeString();
}

Status WriteChromeTrace(const std::string& path) {
  if (const uint64_t dropped = TraceDroppedCount(); dropped > 0) {
    TAXOREC_LOG(WARN) << "trace ring overflow; oldest events were overwritten"
                      << Kv("dropped", dropped)
                      << Kv("ring_capacity", internal::kRingCapacity)
                      << Kv("path", path);
  }
  const std::string json = ChromeTraceJson();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot write trace file: " + path);
  out << json << "\n";
  out.flush();
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

}  // namespace taxorec
