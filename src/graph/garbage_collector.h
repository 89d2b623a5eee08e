// The paper's garbage collector (§4): reclamation driven by the
// timestamp-sorted list of obsolete versions, so each pass touches only the
// versions it reclaims — never the whole store (contrast: VacuumGc).
//
// Sharded drains: the list is entity-key-sharded (ShardedGcList) and each
// shard is drained independently by its own GcDaemon worker
// (CollectShardUpTo). Reclaimability is per-version, so shards need no
// cross-coordination — with one exception: physical tombstone purges must
// remove relationships before their endpoint nodes, and a node's rel
// tombstones may hash to other shards. A node purge that still sees a
// physical rel chain is therefore DEFERRED (re-appended to its shard) until
// the rel shards have drained; see CollectShardUpTo.

#ifndef NEOSI_GRAPH_GARBAGE_COLLECTOR_H_
#define NEOSI_GRAPH_GARBAGE_COLLECTOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "graph/engine.h"

namespace neosi {

/// Outcome of one collection pass (experiment E8 reads these).
struct GcStats {
  Timestamp watermark = kNoTimestamp;
  uint64_t versions_pruned = 0;    ///< Superseded versions unlinked.
  uint64_t tombstones_purged = 0;  ///< Entities physically removed.
  uint64_t index_entries_dropped = 0;
  /// Node purges pushed to a later pass because the node's physical rel
  /// chain was non-empty (its rel tombstones live in a shard still
  /// draining). Each deferral re-appends the entry, so nothing is lost.
  uint64_t purges_deferred = 0;
  uint64_t nanos = 0;              ///< Wall time of the pass.
};

/// Engine-level GC executor over the mvcc::ShardedGcList.
class GcEngine {
 public:
  explicit GcEngine(Engine* engine);

  GcEngine(const GcEngine&) = delete;
  GcEngine& operator=(const GcEngine&) = delete;

  /// One GLOBAL pass: computes the watermark, pops every shard's
  /// reclaimable entries, prunes chains, purges tombstones (relationships
  /// before nodes), and compacts the indexes. Safe to call concurrently
  /// with transactions and with the per-shard drain workers.
  GcStats Collect();

  /// Global pass with an explicit watermark (tests).
  GcStats CollectUpTo(Timestamp watermark);

  /// One SHARD drain (the per-worker path): pops only `shard`'s
  /// reclaimable entries and reclaims them. When `run_global_extras` is
  /// set (exactly one worker per daemon cycle — the primary), the pass
  /// also compacts the indexes and ticks the epoch drain, which are global
  /// and must not run once per shard.
  GcStats CollectShardUpTo(size_t shard, Timestamp watermark,
                           bool run_global_extras);

  /// Epoch tick for the latch-free read path: bumps the global epoch, then
  /// frees every limbo version no entered reader can still reach. Run by
  /// the PRIMARY daemon worker once per cycle (pass or idle skip) and by
  /// the manual/global pass, so retirees from cycle N are freed by cycle
  /// N+1 at the latest. Cheap no-op when nothing was retired.
  void DrainEpochs();

 private:
  /// Shared reclamation body: prunes superseded versions per entity and
  /// purges tombstones (rels strictly before nodes within `entries`;
  /// chained nodes deferred back onto the gc list).
  void DrainEntries(std::vector<GcEntry> entries, Timestamp watermark,
                    GcStats* stats);

  void CompactIndexes(Timestamp watermark, GcStats* stats);

  Engine* const engine_;
  /// One drain at a time PER SHARD (a shard worker and a global pass may
  /// target the same shard); global passes additionally serialize among
  /// themselves and with every shard via ordered acquisition.
  std::vector<std::unique_ptr<std::mutex>> shard_mus_;
  /// Serializes the global extras (index compaction + epoch tick) between
  /// the primary worker and manual Collect() calls.
  std::mutex extras_mu_;
};

/// WAL-logs and physically purges tombstoned entities — relationships
/// strictly before nodes, record + surgery inside one checkpoint epoch.
/// Shared by the threaded collector and the vacuum baseline. Returns the
/// number of entities purged.
uint64_t LogAndPurgeTombstones(Engine* engine, const std::vector<RelId>& rels,
                               const std::vector<NodeId>& nodes,
                               Timestamp watermark);

}  // namespace neosi

#endif  // NEOSI_GRAPH_GARBAGE_COLLECTOR_H_
