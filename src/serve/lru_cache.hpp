// A small LRU map with hit/miss/eviction counters, used by the broker
// as the study-result cache.
//
// Not internally synchronized: the broker accesses it under its own
// mutex, which also keeps the counters consistent with the map state
// (a lock-free cache would decouple them, defeating the metrics
// snapshot guarantee).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace ep::serve {

struct LruCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t size = 0;
  std::size_t capacity = 0;
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {
    EP_REQUIRE(capacity >= 1, "cache capacity must be >= 1");
  }

  // Lookup; promotes the entry to most-recent and counts a hit/miss.
  [[nodiscard]] std::optional<Value> get(const Key& key) {
    std::optional<Value> value = find(key);
    countLookup(value.has_value());
    return value;
  }

  // Lookup that promotes like get() but counts nothing: for an owner
  // that counts the lookup with countLookup() once it knows whether
  // the cache answered.
  [[nodiscard]] std::optional<Value> find(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  void countLookup(bool hit) { ++(hit ? hits_ : misses_); }

  // Insert or overwrite; the entry becomes most-recent.  Evicts the
  // least-recently-used entry when full.
  void put(const Key& key, Value value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    if (order_.size() >= capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
    order_.emplace_front(key, std::move(value));
    index_[key] = order_.begin();
  }

  // Lookup without promotion or counter updates (for tests/inspection).
  [[nodiscard]] bool contains(const Key& key) const {
    return index_.find(key) != index_.end();
  }

  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  [[nodiscard]] LruCacheStats stats() const {
    return LruCacheStats{hits_, misses_, evictions_, order_.size(), capacity_};
  }

  // Keys in recency order, most recent first (for eviction-order tests).
  [[nodiscard]] std::vector<Key> keysMostRecentFirst() const {
    std::vector<Key> keys;
    keys.reserve(order_.size());
    for (const auto& [k, v] : order_) keys.push_back(k);
    return keys;
  }

 private:
  std::size_t capacity_;
  // front = most recently used.
  std::list<std::pair<Key, Value>> order_;
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator,
                     Hash>
      index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace ep::serve
