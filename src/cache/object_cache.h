// The Object Cache of Figure 1, extended per §4 to own the version chains.
//
// Entities are loaded from the GraphStore on miss (materializing the newest
// committed version as a one-element chain) and stay resident while they
// carry more than one version — old versions exist ONLY here, never on disk,
// so a multi-version entity is pinned until GC trims its chain back to one.
//
// Eviction runs where the cache grows: an insert (miss load or new entity)
// that takes the resident count over capacity evicts from its own shard,
// under the write latch it already holds. Each shard runs a CLOCK hand over
// its hash buckets; a hit sets the entry's reference bit, and the hand
// spares a referenced entry once (second chance). An entry is evictable
// only while the store holds its whole state (one committed version, no
// writer in flight) and nobody outside the map holds it — a writer that
// took the object before waiting for its write lock must find the same
// chain its rivals commit to.

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

  /// Iterates every resident node / rel (vacuum-GC baseline, tests).
  void ForEachNode(
      const std::function<void(const std::shared_ptr<CachedNode>&)>& fn) const;
  void ForEachRel(
      const std::function<void(const std::shared_ptr<CachedRel>&)>& fn) const;

  ObjectCacheStats Stats() const;

  /// Resident nodes + relationships (a relaxed counter kept on insert and
  /// erase; no shard walk).
  size_t ResidentCount() const {
    return resident_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kShards = 64;
  /// Evictions one over-capacity insert may make: more than one, so an
  /// overshoot left by pinned entries drains as the cache keeps missing.
  static constexpr size_t kMaxEvictions = 2;
  /// Buckets plus entries the CLOCK hand may pass per insert, so a shard
  /// whose entries are all pinned never costs a scan of the whole shard.
  static constexpr size_t kMaxClockSteps = 64;

  /// Node and relationship maps share a shard, its latch and one CLOCK
  /// hand, so a node miss can evict a cold relationship and vice versa: the
  /// mix of the two follows the workload, not the order they were loaded.
  struct Shard {
    mutable SharedLatch latch;
    std::unordered_map<NodeId, std::shared_ptr<CachedNode>> nodes;
    std::unordered_map<RelId, std::shared_ptr<CachedRel>> rels;
    /// CLOCK hand over the node buckets followed by the rel buckets.
    /// Guarded by `latch` (write).
    size_t hand = 0;
  };
  /// Objects one insert evicted, typed away so nodes and rels fit.
  using Victims = std::array<std::shared_ptr<void>, kMaxEvictions>;

  Shard& ShardFor(uint64_t id) const { return shards_[id % kShards]; }

  /// Counts an entry just added to `shard` (write latch held) and, while
  /// the cache is over capacity, moves up to kMaxEvictions CLOCK victims
  /// out of the shard into `victims`. The caller declares `victims` before
  /// its guard, so the evicted objects are freed after the latch drops.
  void AddResident(Shard& shard, Victims& victims);

  GraphStore* const store_;
  const size_t capacity_;
  EpochManager& epochs_;

  mutable std::array<Shard, kShards> shards_;

  /// Relaxed counters bumped on every lookup: a shared latch here would
  /// serialize every reader. Stats() loads each separately, so the set is
  /// not one atomic snapshot.
  std::atomic<uint64_t> node_hits_{0};
  std::atomic<uint64_t> node_misses_{0};
  std::atomic<uint64_t> rel_hits_{0};
  std::atomic<uint64_t> rel_misses_{0};
  std::atomic<uint64_t> loads_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<size_t> resident_{0};
};

}  // namespace neosi

#endif  // NEOSI_CACHE_OBJECT_CACHE_H_
