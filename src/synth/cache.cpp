#include "synth/cache.hpp"

#include <deque>
#include <map>
#include <mutex>

#include "common/strings.hpp"
#include "obs/metrics.hpp"

namespace qc::synth {

bool synth_cache_enabled() {
  static const bool enabled = common::env_flag("QAPPROX_SYNTH_CACHE", true);
  return enabled;
}

namespace {

// One FIFO-bounded map per result type; a shared mutex keeps the whole cache
// consistent (lookups copy entries out, so the lock is never held while a
// search runs). FIFO rather than LRU: study access patterns are "same key
// re-requested soon after first compute", where recency tracking buys
// nothing over insertion order.
constexpr std::size_t kMaxEntriesPerKind = 128;

template <typename Key, typename Value>
class FifoMap {
 public:
  std::optional<Value> lookup(const Key& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }

  void store(const Key& key, Value value) {
    if (map_.contains(key)) return;  // first result wins; identical anyway
    if (map_.size() >= kMaxEntriesPerKind) {
      map_.erase(order_.front());
      order_.pop_front();
    }
    map_.emplace(key, std::move(value));
    order_.push_back(key);
  }

  std::size_t size() const { return map_.size(); }
  void clear() {
    map_.clear();
    order_.clear();
  }

  /// Entries in insertion (FIFO) order; used by the disk snapshot.
  std::vector<std::pair<Key, Value>> dump() const {
    std::vector<std::pair<Key, Value>> out;
    out.reserve(map_.size());
    for (const Key& key : order_) {
      const auto it = map_.find(key);
      if (it != map_.end()) out.emplace_back(it->first, it->second);
    }
    return out;
  }

 private:
  std::map<Key, Value> map_;
  std::deque<Key> order_;
};

struct CacheState {
  std::mutex mu;
  FifoMap<QSearchCacheKey, CachedQSearch> qsearch;
  FifoMap<QFastCacheKey, CachedQFast> qfast;
  FifoMap<QFactorCacheKey, QFactorResult> qfactor;
  FifoMap<ReducerCacheKey, std::vector<ApproxCircuit>> reducer;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

CacheState& state() {
  static CacheState s;
  return s;
}

void count_hit(CacheState& s, bool hit) {
  static obs::Counter& hits = obs::counter("synth.cache.hits");
  static obs::Counter& misses = obs::counter("synth.cache.misses");
  if (hit) {
    ++s.hits;
    hits.add();
  } else {
    ++s.misses;
    misses.add();
  }
}

template <typename Map, typename Key>
auto locked_lookup(Map& map, const Key& key) {
  CacheState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  auto found = map.lookup(key);
  count_hit(s, found.has_value());
  return found;
}

}  // namespace

SynthCacheStats synth_cache_stats() {
  CacheState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return SynthCacheStats{s.hits, s.misses,
                         s.qsearch.size() + s.qfast.size() + s.qfactor.size() +
                             s.reducer.size()};
}

void clear_synth_cache() {
  CacheState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.qsearch.clear();
  s.qfast.clear();
  s.qfactor.clear();
  s.reducer.clear();
}

std::optional<CachedQSearch> synth_cache_lookup(const QSearchCacheKey& key) {
  return locked_lookup(state().qsearch, key);
}

std::optional<CachedQFast> synth_cache_lookup(const QFastCacheKey& key) {
  return locked_lookup(state().qfast, key);
}

std::optional<QFactorResult> synth_cache_lookup(const QFactorCacheKey& key) {
  return locked_lookup(state().qfactor, key);
}

std::optional<std::vector<ApproxCircuit>> synth_cache_lookup(const ReducerCacheKey& key) {
  return locked_lookup(state().reducer, key);
}

void synth_cache_store(const QSearchCacheKey& key, CachedQSearch entry) {
  CacheState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.qsearch.store(key, std::move(entry));
}

void synth_cache_store(const QFastCacheKey& key, CachedQFast entry) {
  CacheState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.qfast.store(key, std::move(entry));
}

void synth_cache_store(const QFactorCacheKey& key, QFactorResult entry) {
  CacheState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.qfactor.store(key, std::move(entry));
}

void synth_cache_store(const ReducerCacheKey& key, std::vector<ApproxCircuit> stream) {
  CacheState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.reducer.store(key, std::move(stream));
}

std::vector<std::pair<QSearchCacheKey, CachedQSearch>> synth_cache_dump_qsearch() {
  CacheState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.qsearch.dump();
}

std::vector<std::pair<QFastCacheKey, CachedQFast>> synth_cache_dump_qfast() {
  CacheState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.qfast.dump();
}

std::vector<std::pair<QFactorCacheKey, QFactorResult>> synth_cache_dump_qfactor() {
  CacheState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.qfactor.dump();
}

std::vector<std::pair<ReducerCacheKey, std::vector<ApproxCircuit>>> synth_cache_dump_reducer() {
  CacheState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.reducer.dump();
}

}  // namespace qc::synth
