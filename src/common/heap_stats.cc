#include "common/heap_stats.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "common/metrics.h"

// The replacement allocator is compiled out under tsan/asan: both
// sanitizers interpose malloc/free and operator new/delete themselves to
// track allocation provenance, and a second interposition layer shifting
// pointers by a header would defeat their bookkeeping (and their
// red-zones would flag the header reads). Coverage is not lost — the
// accounting arithmetic has no threading or memory behavior of its own,
// and the hwobs tests skip-with-message when HeapStatsEnabled is false.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TAXOREC_HEAP_STATS_STUB 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TAXOREC_HEAP_STATS_STUB 1
#endif
#endif

namespace taxorec {
namespace {

// Slot 0 = "other" (untagged); the last slot aggregates the process total.
constexpr int kTotalSlot = kMaxHeapSubsystems;

/// Constant-initialized so accounting is safe from the very first static
/// constructor's allocation (operator new runs before main).
struct Slot {
  std::atomic<int64_t> current{0};
  std::atomic<int64_t> peak{0};
  std::atomic<uint64_t> allocs{0};
};

constinit Slot g_slots[kMaxHeapSubsystems + 1];

constinit thread_local int tl_subsystem = 0;

void Credit(Slot* slot, int64_t bytes) {
  const int64_t now =
      slot->current.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t peak = slot->peak.load(std::memory_order_relaxed);
  while (now > peak && !slot->peak.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  if (bytes > 0) slot->allocs.fetch_add(1, std::memory_order_relaxed);
}

void Account(int tag, int64_t bytes) {
  if (tag < 0 || tag >= kMaxHeapSubsystems) tag = 0;
  Credit(&g_slots[tag], bytes);
  Credit(&g_slots[kTotalSlot], bytes);
}

/// Registered names; only touched off the malloc path (registration and
/// snapshots), so a mutex + heap-allocated strings are fine here.
struct NameTable {
  std::mutex mu;
  std::vector<std::string> names;  // index = tag - 1
};

NameTable& Names() {
  static NameTable* table = new NameTable();
  return *table;
}

}  // namespace

int RegisterHeapSubsystem(const std::string& name) {
  NameTable& table = Names();
  std::lock_guard<std::mutex> lock(table.mu);
  for (size_t i = 0; i < table.names.size(); ++i) {
    if (table.names[i] == name) return static_cast<int>(i) + 1;
  }
  if (table.names.size() + 1 >= kMaxHeapSubsystems) return 0;
  table.names.push_back(name);
  return static_cast<int>(table.names.size());
}

int CurrentHeapSubsystem() { return tl_subsystem; }

HeapScope::HeapScope(int subsystem) : prev_(tl_subsystem) {
  tl_subsystem =
      subsystem >= 0 && subsystem < kMaxHeapSubsystems ? subsystem : 0;
}

HeapScope::~HeapScope() { tl_subsystem = prev_; }

#if !defined(TAXOREC_HEAP_STATS_STUB)
bool HeapStatsEnabled() { return true; }
#else
bool HeapStatsEnabled() { return false; }
#endif

// Kept live in stub builds too (the arithmetic is allocator-independent);
// the Enabled gate on snapshot/publish keeps stub output empty.
void HeapAccountExternal(int tag, int64_t bytes) { Account(tag, bytes); }

std::vector<HeapSubsystemStats> HeapStatsSnapshot() {
  std::vector<HeapSubsystemStats> out;
  if (!HeapStatsEnabled()) return out;
  std::vector<std::string> names;
  {
    NameTable& table = Names();
    std::lock_guard<std::mutex> lock(table.mu);
    names = table.names;
  }
  const auto append = [&out](const std::string& name, const Slot& slot) {
    if (slot.allocs.load(std::memory_order_relaxed) == 0) return;
    HeapSubsystemStats s;
    s.name = name;
    // A test reset can leave live blocks to under-debit; clamp so the
    // exported gauge never goes negative.
    s.current_bytes =
        std::max<int64_t>(0, slot.current.load(std::memory_order_relaxed));
    s.peak_bytes = slot.peak.load(std::memory_order_relaxed);
    s.alloc_count = slot.allocs.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  };
  append("other", g_slots[0]);
  for (size_t i = 0; i < names.size(); ++i) {
    append(names[i], g_slots[i + 1]);
  }
  append("total", g_slots[kTotalSlot]);
  return out;
}

void PublishHeapStats() {
  for (const HeapSubsystemStats& s : HeapStatsSnapshot()) {
    MetricsRegistry::Instance()
        .GetGauge("taxorec.heap." + s.name + ".current_bytes")
        ->Set(static_cast<double>(s.current_bytes));
    MetricsRegistry::Instance()
        .GetGauge("taxorec.heap." + s.name + ".peak_bytes")
        ->Set(static_cast<double>(s.peak_bytes));
  }
}

}  // namespace taxorec

#if !defined(TAXOREC_HEAP_STATS_STUB)

// ---------------------------------------------------------------------------
// Global (non-aligned) operator new/delete replacement. Each block gets a
// 16-byte header {magic, tag|size} so the matching delete debits the
// allocating subsystem exactly. 16 bytes preserves the default new
// alignment (__STDCPP_DEFAULT_NEW_ALIGNMENT__ <= 16 on x86-64). The magic
// check makes delete robust to blocks that did not come from this
// operator new (e.g. handed across from a leak-checking runtime): those
// free() as-is, unaccounted.

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

constexpr uint64_t kHeapMagic = 0x7461786f72686570ULL;  // "taxorhep"
constexpr uint64_t kSizeMask = (1ULL << 48) - 1;

struct Header {
  uint64_t magic;
  uint64_t tag_size;  // tag << 48 | requested size
};
static_assert(sizeof(Header) == 16);
static_assert(alignof(std::max_align_t) >= alignof(Header));

void* TaggedAlloc(std::size_t size) noexcept {
  if (size > kSizeMask) return nullptr;
  void* raw = std::malloc(size + sizeof(Header));
  if (raw == nullptr) return nullptr;
  const int tag = taxorec::CurrentHeapSubsystem();
  auto* h = static_cast<Header*>(raw);
  h->magic = kHeapMagic;
  h->tag_size = (static_cast<uint64_t>(tag) << 48) | size;
  taxorec::HeapAccountExternal(tag, static_cast<int64_t>(size));
  return h + 1;
}

void TaggedFree(void* ptr) noexcept {
  if (ptr == nullptr) return;
  auto* h = static_cast<Header*>(ptr) - 1;
  if (h->magic != kHeapMagic) {
    std::free(ptr);  // foreign block: not ours to account
    return;
  }
  h->magic = 0;  // poison against double-debit
  const int tag = static_cast<int>(h->tag_size >> 48);
  const auto size = static_cast<int64_t>(h->tag_size & kSizeMask);
  taxorec::HeapAccountExternal(tag, -size);
  std::free(h);
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = TaggedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = TaggedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return TaggedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return TaggedAlloc(size);
}

void operator delete(void* ptr) noexcept { TaggedFree(ptr); }
void operator delete[](void* ptr) noexcept { TaggedFree(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { TaggedFree(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { TaggedFree(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  TaggedFree(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  TaggedFree(ptr);
}

#endif  // !TAXOREC_HEAP_STATS_STUB
