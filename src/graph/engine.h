// Internal component container shared by GraphDatabase, Transaction and the
// garbage collectors. Not part of the stable public API (exposed for tests
// and benches, which probe engine internals deliberately).

#ifndef NEOSI_GRAPH_ENGINE_H_
#define NEOSI_GRAPH_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>

#include "cache/object_cache.h"
#include "common/options.h"
#include "index/label_index.h"
#include "index/property_index.h"
#include "mvcc/epoch.h"
#include "mvcc/gc_list.h"
#include "storage/graph_store.h"
#include "txn/active_txn_table.h"
#include "txn/lock_manager.h"
#include "txn/ssi_tracker.h"
#include "txn/timestamp_oracle.h"

namespace neosi {

class CheckpointDaemon;
class GcDaemon;

/// Failure-injection switches used by the recovery / crash tests. All off by
/// default; production paths never set them.
struct TestHooks {
  /// Commit appends the WAL record, then "crashes" before applying anything
  /// to the stores (returns IOError; the database must be reopened).
  std::atomic<bool> crash_before_store_apply{false};
  /// Commit crashes after this many successful store-apply operations
  /// (-1 = disabled).
  std::atomic<int> crash_after_n_store_ops{-1};
  /// Commit parks between its WAL append and its store apply — with its
  /// record's lsn pinned against checkpoint truncation — until the flag is
  /// cleared (checkpoint-vs-group-commit race tests).
  std::atomic<bool> stall_before_store_apply{false};
  /// Number of commits that have reached the stall point above.
  std::atomic<uint64_t> stalled_commits{0};
  /// Commit parks after its effects are applied and its SSI bookkeeping is
  /// finished, but before the oracle's ordered publication of the commit
  /// timestamp — the window where a freshly begun transaction can still
  /// acquire a snapshot predating the commit (safe-snapshot race tests).
  std::atomic<bool> stall_before_publication{false};
  /// Number of commits that have reached the publication stall point.
  std::atomic<uint64_t> stalled_publications{0};
};

/// Per-cause admission-control counters, incremented by the network session
/// front-end (src/server) and surfaced through DatabaseStats. The engine
/// itself never sheds anything — admission decisions live at the session
/// boundary, where a retryable Busy costs the client one round-trip instead
/// of an aborted established snapshot.
struct AdmissionCounters {
  /// Begin requests admitted (possibly after a bounded delay).
  std::atomic<uint64_t> admitted{0};
  /// Begin requests that waited at least one delay quantum for pressure to
  /// clear before being admitted or shed.
  std::atomic<uint64_t> delayed{0};
  /// LIVE gauge: Begin requests currently parked in the admission delay
  /// window (tests synchronize on this to drain pressure deterministically
  /// while a Begin is provably waiting).
  std::atomic<uint64_t> waiting{0};
  /// Begin requests shed with Busy because the GC backlog gauge sat above
  /// snapshot_expire_backlog for the whole admission window.
  std::atomic<uint64_t> shed_backlog{0};
  /// Begin requests shed with Busy because max_sessions transactions were
  /// already open through the server.
  std::atomic<uint64_t> shed_sessions{0};
};

/// Everything the engine is made of, wired once at Open().
struct Engine {
  explicit Engine(const DatabaseOptions& opts)
      : options(opts),
        store(opts),
        active_txns(opts.ResolvedTxnTableShards()),
        lock_manager(opts.lock_timeout_ms),
        gc_list(opts.ResolvedGcShards()),
        epochs(opts.ResolvedEpochSlots()),
        ssi(opts.ResolvedSsiMarkerShards()) {}

  DatabaseOptions options;

  GraphStore store;
  TimestampOracle oracle;
  ActiveTxnTable active_txns;
  LockManager lock_manager;
  /// Entity-key-sharded reclamation queue (opts.gc_shards shards, auto =
  /// core count); each shard is drained by its own GcDaemon worker.
  ShardedGcList gc_list;
  /// Epoch-based-reclamation domain for the latch-free read path, wired
  /// into every cached version chain. The GC daemon bumps + drains it once
  /// per cycle.
  EpochManager epochs;
  /// SIREAD markers + rw-antidependency edges for kSerializable
  /// transactions (opts.ssi_marker_shards shards, auto = 64). Touched only
  /// by serializable transactions; SI/RC paths never enter it.
  SsiTracker ssi;

  // Constructed after store.Open() (needs the store pointer).
  std::unique_ptr<ObjectCache> cache;

  LabelIndex label_index;
  PropertyIndex node_prop_index;
  PropertyIndex rel_prop_index;

  // There is deliberately no global commit mutex: commits validate under
  // their long write locks, allocate a timestamp from the oracle (the only
  // sequencing point), apply in parallel, and publish in timestamp order
  // through the oracle's watermark (see ARCHITECTURE.md, "Commit pipeline").

  /// The background reclamation daemon, published by GraphDatabase after
  /// wiring (null when background_gc_interval_ms == 0). Commit publication
  /// reads it to nudge a pass when the GcList backlog crosses the
  /// threshold; no GC work ever runs on the commit path itself.
  std::atomic<GcDaemon*> gc_daemon{nullptr};

  /// The background checkpoint daemon, published the same way (null when
  /// checkpoint_interval_ms == 0). Commit publication nudges it when the
  /// live WAL outgrows checkpoint_wal_threshold; no checkpoint work ever
  /// runs on the commit path itself.
  std::atomic<CheckpointDaemon*> checkpoint_daemon{nullptr};

  /// Admission-control counters written by the network front-end (zero in
  /// purely in-process deployments).
  AdmissionCounters admission;

  TestHooks test_hooks;
};

}  // namespace neosi

#endif  // NEOSI_GRAPH_ENGINE_H_
