// Consistent-hash ring: the fleet's cache-partitioning function.
//
// Each shard contributes `virtualNodes` points to a 64-bit ring; a
// (device, workload) key is owned by the shard whose point follows the
// key's hash clockwise.  Virtual nodes smooth the partition (balance
// within a few tens of percent at 64 vnodes), and removal of one shard
// moves only the keys that shard owned (~1/N of the space) to the
// clockwise successors — the property the fleet's rebalance drill
// depends on: a topology change must not stampede every shard's cache.
//
// All hashing is deterministic (FNV-1a over the shard id chained
// through the splitmix64 mixer), so tests and replays see the same
// partition on every platform.
//
// Not internally synchronized.  The router treats a ring as immutable
// once published: topology changes build a modified copy and swap the
// shared_ptr, so lookups run on a snapshot without a lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace ep::fleet {

// Ring position of a (device, workload-size) cache identity.
[[nodiscard]] std::uint64_t ringKeyHash(serve::Device device, int n);

class HashRing {
 public:
  explicit HashRing(std::size_t virtualNodes = 64);

  // Topology edits are idempotent: adding a present shard or removing
  // an absent one is a no-op.
  void addShard(const std::string& id);
  void removeShard(const std::string& id);

  [[nodiscard]] bool contains(const std::string& id) const;
  [[nodiscard]] std::size_t shardCount() const { return ids_.size(); }
  [[nodiscard]] std::size_t virtualNodes() const { return virtualNodes_; }
  [[nodiscard]] std::vector<std::string> shards() const;  // sorted ids

  // The shard owning `keyHash`; empty string on an empty ring.
  [[nodiscard]] const std::string& shardFor(std::uint64_t keyHash) const;

  // Up to `count` distinct shards in clockwise ring order from the
  // key: [0] is the owner ("home"), [1] its successor (the stale-
  // replica holder), and so on.
  [[nodiscard]] std::vector<std::string> preferenceOrder(
      std::uint64_t keyHash, std::size_t count) const;

 private:
  std::size_t virtualNodes_;
  std::map<std::uint64_t, std::string> points_;  // ring position -> shard
  std::set<std::string> ids_;
};

}  // namespace ep::fleet
