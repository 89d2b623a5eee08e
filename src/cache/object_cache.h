// The Object Cache of Figure 1, extended per §4 to own the version chains.
//
// Entities are loaded from the GraphStore on miss (materializing the newest
// committed version as a one-element chain) and stay resident while they
// carry more than one version — old versions exist ONLY here, never on disk,
// so a multi-version entity is pinned until GC trims its chain back to one.
// Clean single-version entities are evictable once the cache exceeds its
// soft capacity.

#ifndef NEOSI_CACHE_OBJECT_CACHE_H_
#define NEOSI_CACHE_OBJECT_CACHE_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>

#include "common/latch.h"
#include "common/options.h"
#include "common/status.h"
#include "common/types.h"
#include "cache/cached_entity.h"
#include "storage/graph_store.h"

namespace neosi {

/// Cache observability (tests + E9 memory accounting).
struct ObjectCacheStats {
  uint64_t node_hits = 0;
  uint64_t node_misses = 0;
  uint64_t rel_hits = 0;
  uint64_t rel_misses = 0;
  uint64_t loads = 0;
  uint64_t evictions = 0;
  uint64_t resident_nodes = 0;
  uint64_t resident_rels = 0;
  uint64_t resident_versions = 0;   ///< Sum of chain lengths.
  uint64_t approx_bytes = 0;        ///< Approximate heap footprint.
};

/// Sharded id -> cached-object maps for nodes and relationships.
class ObjectCache {
 public:
  /// Every cached entity's version chain walks under, and retires into,
  /// `epochs`, which must outlive the cache.
  ObjectCache(GraphStore* store, size_t capacity, EpochManager& epochs);

  ObjectCache(const ObjectCache&) = delete;
  ObjectCache& operator=(const ObjectCache&) = delete;

  /// Returns the cached node, loading the newest committed version from the
  /// store on miss. NotFound if the record is free (never existed/purged).
  Result<std::shared_ptr<CachedNode>> GetNode(NodeId id);
  Result<std::shared_ptr<CachedRel>> GetRel(RelId id);

  /// Inserts a fresh (empty-chain) object for a brand-new entity; the store
  /// record is not consulted. Internal error if already cached.
  Result<std::shared_ptr<CachedNode>> InsertNewNode(NodeId id);
  Result<std::shared_ptr<CachedRel>> InsertNewRel(RelId id, NodeId src,
                                                  NodeId dst, RelTypeId type);

  /// Lookup without loading (GC paths). Null on miss.
  std::shared_ptr<CachedNode> PeekNode(NodeId id) const;
  std::shared_ptr<CachedRel> PeekRel(RelId id) const;

  /// Drops an entry (entity purge or aborted creation).
  void EraseNode(NodeId id);
  void EraseRel(RelId id);

  /// Evicts clean single-version entries while above capacity. Returns the
  /// number evicted.
  size_t EvictIfNeeded();

  /// Iterates every resident node / rel (vacuum-GC baseline, tests).
  void ForEachNode(
      const std::function<void(const std::shared_ptr<CachedNode>&)>& fn) const;
  void ForEachRel(
      const std::function<void(const std::shared_ptr<CachedRel>&)>& fn) const;

  ObjectCacheStats Stats() const;
  size_t ResidentCount() const;

 private:
  static constexpr size_t kShards = 64;

  struct NodeShard {
    mutable SharedLatch latch;
    std::unordered_map<NodeId, std::shared_ptr<CachedNode>> map;
  };
  struct RelShard {
    mutable SharedLatch latch;
    std::unordered_map<RelId, std::shared_ptr<CachedRel>> map;
  };

  NodeShard& NodeShardFor(NodeId id) const { return node_shards_[id % kShards]; }
  RelShard& RelShardFor(RelId id) const { return rel_shards_[id % kShards]; }

  GraphStore* const store_;
  const size_t capacity_;
  EpochManager& epochs_;

  mutable std::array<NodeShard, kShards> node_shards_;
  mutable std::array<RelShard, kShards> rel_shards_;

  /// Relaxed counters bumped on every lookup: a shared latch here would
  /// serialize every reader. Stats() loads each separately, so the set is
  /// not one atomic snapshot.
  std::atomic<uint64_t> node_hits_{0};
  std::atomic<uint64_t> node_misses_{0};
  std::atomic<uint64_t> rel_hits_{0};
  std::atomic<uint64_t> rel_misses_{0};
  std::atomic<uint64_t> loads_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace neosi

#endif  // NEOSI_CACHE_OBJECT_CACHE_H_
