#include "serve/result_cache.h"

#include "common/check.h"
#include "common/metrics.h"

namespace taxorec {
namespace {

// Process-wide probe counters (every cache instance feeds the same pair;
// taxorec.serve.cache.bypass is incremented by the server for degraded
// batches that skip the probe entirely).
struct CacheMetrics {
  Counter* hits;
  Counter* misses;

  static CacheMetrics& Instance() {
    static CacheMetrics m{
        MetricsRegistry::Instance().GetCounter("taxorec.serve.cache.hits"),
        MetricsRegistry::Instance().GetCounter("taxorec.serve.cache.misses"),
    };
    return m;
  }
};

}  // namespace

ResultCache::ResultCache(size_t capacity) : capacity_(capacity) {
  TAXOREC_CHECK(capacity_ > 0);
}

bool ResultCache::Get(uint32_t user, size_t k, std::vector<TopKEntry>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const Key key{user, k, generation_};
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    CacheMetrics::Instance().misses->Increment();
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // Refresh recency.
  *out = it->second->second;
  ++hits_;
  CacheMetrics::Instance().hits->Increment();
  return true;
}

void ResultCache::Put(uint32_t user, size_t k,
                      const std::vector<TopKEntry>& list) {
  std::lock_guard<std::mutex> lock(mu_);
  const Key key{user, k, generation_};
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = list;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  lru_.emplace_front(key, list);
  index_.emplace(key, lru_.begin());
}

void ResultCache::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  ++generation_;
}

uint64_t ResultCache::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

uint64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace taxorec
