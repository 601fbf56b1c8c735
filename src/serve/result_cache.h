// LRU cache of served top-K lists, keyed by (user, k).
//
// The cache stores final ranked lists, so a hit is a lock, a hash probe,
// and one copy; correctness never depends on it — a hit returns exactly
// what recomputation would.
//
// Invalidate() bumps an internal generation that is part of every key, so
// all current entries stop matching at once — the lever drain
// (BatchServer::Drain) pulls. Invalidated entries are evicted lazily: they
// keep their LRU positions and fall out under insertion pressure
// oldest-first, which keeps Invalidate O(1) and the LRU state a pure
// function of the request stream.
//
// Thread-safe: one mutex around the map + recency list. The serving fan-out
// only touches the cache once per request (miss) or once total (hit), far
// from the scoring inner loop, so contention is negligible.
//
// Every probe also feeds the process-wide taxorec.serve.cache.{hits,misses}
// counters; taxorec.serve.cache.bypass (incremented by the server) counts
// requests that skipped the probe because their batch ran degraded — the
// previously invisible third outcome.
#ifndef TAXOREC_SERVE_RESULT_CACHE_H_
#define TAXOREC_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serve/topk.h"

namespace taxorec {

class ResultCache {
 public:
  /// `capacity` is the maximum number of cached lists (> 0; a capacity-0
  /// cache is expressed by not constructing one — see ServeOptions).
  explicit ResultCache(size_t capacity);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Copies the cached list for (user, k) into *out and refreshes its
  /// recency; false on miss.
  bool Get(uint32_t user, size_t k, std::vector<TopKEntry>* out);

  /// Inserts (or refreshes) the list for (user, k), evicting the
  /// least-recently-used entry when full.
  void Put(uint32_t user, size_t k, const std::vector<TopKEntry>& list);

  /// Deterministically invalidates every current entry by bumping the
  /// cache generation (O(1); stale entries are evicted lazily by LRU
  /// pressure, oldest first). Subsequent Gets for any key miss until the
  /// list is Put again.
  void Invalidate();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t hits() const;
  uint64_t misses() const;
  /// Invalidate() calls so far (the current generation).
  uint64_t generation() const;

 private:
  struct Key {
    uint32_t user;
    uint64_t k;
    uint64_t generation;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      // splitmix64-style mix of the three fields.
      uint64_t h = key.user;
      h = (h ^ (key.k + 0x9E3779B97F4A7C15ULL)) * 0xBF58476D1CE4E5B9ULL;
      h = (h ^ (h >> 31) ^ key.generation) * 0x94D049BB133111EBULL;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };
  using Entry = std::pair<Key, std::vector<TopKEntry>>;

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t generation_ = 0;
};

}  // namespace taxorec

#endif  // TAXOREC_SERVE_RESULT_CACHE_H_
