// A small LRU map, used by the broker as the study-result cache and the
// stale-while-error store.  It counts nothing: the broker counts each
// hit, miss and eviction once, in its registry, where it decides them.
//
// Not internally synchronized: the broker accesses it under its own
// mutex.
#pragma once

#include <cstddef>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace ep::serve {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {
    EP_REQUIRE(capacity >= 1, "cache capacity must be >= 1");
  }

  // Lookup; promotes the entry to most-recent.
  [[nodiscard]] std::optional<Value> get(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  // Insert or overwrite; the entry becomes most-recent.  Evicts the
  // least-recently-used entry when full; returns true when it did.
  bool put(const Key& key, Value value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return false;
    }
    const bool evict = order_.size() >= capacity_;
    if (evict) {
      index_.erase(order_.back().first);
      order_.pop_back();
    }
    order_.emplace_front(key, std::move(value));
    index_[key] = order_.begin();
    return evict;
  }

  // Lookup without promotion (for tests/inspection).
  [[nodiscard]] bool contains(const Key& key) const {
    return index_.find(key) != index_.end();
  }

  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

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
};

}  // namespace ep::serve
