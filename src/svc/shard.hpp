// Keyed sharding for multi-tenant streams: maps an event key to the shard
// (stream-member rank) that owns it.  Hash partitioning by default —
// splitmix64 of the key, reduced modulo the shard count — with the map
// pluggable per stream so tenants can bring locality-aware or
// range-partitioned placements.
//
// Staging asks for an owner once per event, so the default map is a plain
// struct the routing loop inlines; only a custom map is type-erased, and
// only a custom map's answer is range-checked.  ShardMap::visit hands the
// loop whichever of the two the stream carries, picked once per call.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "mprt/sim.hpp"
#include "util/error.hpp"

namespace rsmpi::svc {

/// A shard map: key -> shard index in [0, num_shards).  Must be pure and
/// identical on every rank (routing is computed independently by each
/// member), and total — every key must map somewhere.
using ShardFn = std::function<int(std::uint64_t key, int num_shards)>;

/// Default hash partitioner: well-mixed and stationary, so a key's owner
/// never changes across epochs (what keyed aggregation state requires).
/// The owner is splitmix64(key) % num_shards; a power-of-two shard count
/// takes the same residue with a mask.
struct HashShard {
  int operator()(std::uint64_t key, int num_shards) const {
    const std::uint64_t h = mprt::splitmix64(key);
    const auto n = static_cast<std::uint64_t>(num_shards);
    return static_cast<int>((n & (n - 1)) == 0 ? h & (n - 1) : h % n);
  }
};

/// Pluggable shard map carried by each stream: HashShard unless built
/// from a custom function.
class ShardMap {
 public:
  ShardMap() = default;
  explicit ShardMap(ShardFn fn) : fn_(std::move(fn)) {
    if (!fn_) throw ArgumentError("ShardMap: empty shard function");
  }

  /// Calls `f` with the map as a concrete callable `(key, num_shards) ->
  /// shard`: HashShard itself for the default map, or a range-checking
  /// wrapper of the custom function.  A loop inside `f` inlines the
  /// default map.
  template <typename F>
  decltype(auto) visit(F&& f) const {
    if (!fn_) return std::forward<F>(f)(HashShard{});
    return std::forward<F>(f)([this](std::uint64_t key, int num_shards) {
      const int shard = fn_(key, num_shards);
      if (shard < 0 || shard >= num_shards) {
        throw ArgumentError("ShardMap: shard function returned " +
                            std::to_string(shard) + " outside [0, " +
                            std::to_string(num_shards) + ")");
      }
      return shard;
    });
  }

 private:
  ShardFn fn_;  // empty for the default map
};

}  // namespace rsmpi::svc
