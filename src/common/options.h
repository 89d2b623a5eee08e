// Database-wide configuration.
//
// Documentation convention: every option states its UNITS, its DEFAULT, and
// the daemon / trigger it paces (or the code path that consumes it), so an
// operator can reason about a deployment from this file alone. The daemons:
//
//   GcDaemon          sharded version reclamation  (background_gc_interval_ms,
//                     gc_backlog_threshold, gc_shards, snapshot_max_age_ms,
//                     snapshot_expire_backlog) + epoch limbo drains
//                     (epoch_slots)
//   CheckpointDaemon  WAL bounding                 (checkpoint_interval_ms,
//                     checkpoint_wal_threshold, wal_segment_size,
//                     wal_recycle_segments)
//
// Auto-sized (0 = auto) options resolve from
// std::thread::hardware_concurrency() at Open(): gc_shards,
// txn_table_shards, epoch_slots. The Resolved*() helpers below are the
// single source of truth for the resolution rules.

#ifndef NEOSI_COMMON_OPTIONS_H_
#define NEOSI_COMMON_OPTIONS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "common/types.h"

namespace neosi {

class WalDir;  // storage/wal_dir.h; options only carries a handle

/// Options controlling a GraphDatabase instance. Plain data; copyable.
struct DatabaseOptions {
  // --- placement -----------------------------------------------------------

  /// Directory for store files and the WAL segments. Created at Open() when
  /// missing. Ignored when in_memory is true. No default: on-disk databases
  /// must name one (Open() fails with InvalidArgument otherwise).
  std::string path;

  /// When true (the DEFAULT), store files and WAL live in anonymous memory —
  /// no files are created and nothing survives the process. Recovery tests
  /// and the durability benches use on-disk mode.
  bool in_memory = true;

  // --- transaction semantics ----------------------------------------------

  /// Isolation level for BeginTransaction() without an explicit one.
  /// Default: kSnapshotIsolation (the paper's contribution);
  /// kReadCommitted reproduces stock Neo4j.
  IsolationLevel default_isolation = IsolationLevel::kSnapshotIsolation;

  /// Write-write conflict resolution policy under snapshot isolation
  /// (paper §3). Default: kFirstUpdaterWinsWait (PostgreSQL-style: wait for
  /// the holder, abort if it commits). Consumed on the write-lock path
  /// (Transaction::AcquireWriteLock / CheckWriteConflict) and at commit
  /// validation for kFirstCommitterWins.
  ConflictPolicy conflict_policy = ConflictPolicy::kFirstUpdaterWinsWait;

  // --- serializable mode (SSI; strictly opt-in per transaction) ------------

  /// When true (the DEFAULT), a READ-ONLY kSerializable transaction gets a
  /// SAFE SNAPSHOT when the tracker's probe proves no concurrent
  /// read-write serializable peer can still commit: (a) no read-write
  /// serializable transaction is registered and unfinished, AND (b) every
  /// finished one committed at or below the snapshot timestamp — (b)
  /// closes the ordered-publication window, where a peer has left the
  /// tracker but its commit timestamp is not yet readable, so the active
  /// count alone would miss it. A safe snapshot skips all SIREAD marking
  /// and rw-antidependency tracking and is guaranteed to commit without a
  /// SerializationFailure (the Ports/Grittner read-only optimization).
  /// Consumed once per Begin(kSerializable, {read_only}); counted in
  /// DatabaseStats::ssi_safe_snapshots. False forces every serializable
  /// transaction through full tracking (useful to exercise the tracker).
  bool ssi_safe_snapshots = true;

  /// Shard count of the SsiTracker's SIREAD-marker tables (entity, label,
  /// property-range, adjacency markers). Default: 0 = AUTO (64, mirroring
  /// the LockManager's shard fan-out). Explicit values are clamped to
  /// [1, 64]. More shards keep concurrent serializable readers and writers
  /// off each other's marker mutexes; the tables are touched only by
  /// kSerializable transactions, so the setting is irrelevant otherwise.
  size_t ssi_marker_shards = 0;

  // --- storage -------------------------------------------------------------

  /// Page size of the store files, in BYTES. Default: 8192. Fixed at
  /// creation; reopening with a different value is rejected as corruption.
  size_t page_size = 8192;

  /// Soft capacity of the object cache, in CACHED OBJECTS (nodes + rels).
  /// Default: 1'048'576 (1 << 20). 0 = unbounded. Clean single-version
  /// objects beyond this are evicted by the GC daemon's per-pass (and
  /// idle-wakeup) eviction sweep — eviction never runs on the commit path.
  size_t object_cache_capacity = 1 << 20;

  // --- GC daemon (version reclamation) -------------------------------------

  /// Pass interval of the background GC drain workers, in MILLISECONDS.
  /// Default: 50. Reclamation is fully asynchronous: no GC work ever runs
  /// on the commit path. 0 disables the daemon entirely (callers invoke
  /// GraphDatabase::RunGc() manually — and the snapshot lifecycle policy
  /// below is then NOT enforced, since the daemon runs its expiry sweep).
  uint64_t background_gc_interval_ms = 50;

  /// GC backlog (obsolete versions queued across all shards, in ENTRIES)
  /// at which commit publication nudges the GC drain workers for an
  /// immediate pass instead of waiting out the interval. Default: 1024.
  /// 0 disables nudging (interval pacing only). Also the trigger gauge for
  /// snapshot_expire_backlog below.
  uint64_t gc_backlog_threshold = 1024;

  /// Number of entity-key shards of the GC list — and of background drain
  /// worker threads (one per shard). Default: 0 = AUTO (the machine's
  /// hardware_concurrency, clamped to [1, 64]; 4 when the core count is
  /// unknown). Explicit values are clamped to [1, 64]. Each shard keeps
  /// the paper's timestamp-sorted list (near-sorted tail insert,
  /// O(#reclaimed) drain); sharding removes the single-list mutex and
  /// single drain thread as the bottleneck at high core counts. 1
  /// reproduces the pre-sharding topology.
  size_t gc_shards = 0;

  // --- read path (epoch-based reclamation) ---------------------------------

  /// Epoch slot-array size, in SLOTS — the number of readers that can be
  /// simultaneously inside a latch-free chain walk (src/mvcc/epoch.h;
  /// excess readers spin-probe until a slot frees). Default: 0 = AUTO
  /// (max(64, 4 * hardware_concurrency)).
  size_t epoch_slots = 0;

  /// Shard count of the active-transaction table (Begin()'s registration
  /// point, scanned by Watermark()). Default: 0 = AUTO
  /// (max(16, 2 * hardware_concurrency), clamped to 64). More shards keep
  /// concurrent Begin()s off each other's mutexes; fewer make the
  /// watermark scan cheaper.
  size_t txn_table_shards = 0;

  // --- snapshot lifecycle (snapshot-too-old policy) ------------------------

  /// Maximum age of a live snapshot, in MILLISECONDS, before the GC
  /// daemon's expiry sweep marks it expired (PostgreSQL's
  /// old_snapshot_threshold). Default: 0 = never expire (a long-lived
  /// snapshot then pins the reclamation watermark and the version backlog
  /// grows without bound). An expired snapshot-isolation transaction fails
  /// its next read or commit with Status::SnapshotTooOld and rolls back
  /// (releasing its locks); the reclamation watermark advances past it as
  /// soon as it is marked, so the backlog drains without waiting for the
  /// victim to notice. Enforced by the GC daemon: requires
  /// background_gc_interval_ms > 0.
  uint64_t snapshot_max_age_ms = 0;

  /// GC backlog (ENTRIES, same gauge as gc_backlog_threshold) beyond which
  /// the expiry sweep evicts the oldest watermark-pinning snapshot cohort
  /// EARLY — before snapshot_max_age_ms — when the backlog head is not
  /// reclaimable below the current watermark (i.e. a snapshot is actually
  /// pinning it). Default: 0 = no backlog-pressure eviction. Victims get a
  /// 10 ms grace period from Begin() so a fresh snapshot under a write
  /// burst is never evicted. Enforced by the GC daemon. The network session
  /// front-end (src/server) reads the same gauge/threshold pair as its
  /// admission signal: while the backlog sits above this value, NEW wire
  /// Begins are delayed or shed with retryable Status::Busy — established
  /// snapshots are never admission-aborted (see ServerOptions).
  uint64_t snapshot_expire_backlog = 0;

  // --- checkpoint daemon (WAL bounding) ------------------------------------

  /// Pass interval of the background checkpoint daemon, in MILLISECONDS.
  /// Default: 200. Each pass runs a FUZZY incremental checkpoint (never
  /// blocks commits) when the live WAL has outgrown
  /// checkpoint_wal_threshold or the segment chain has rolled, so
  /// long-running write workloads never accumulate unbounded log. 0
  /// disables the daemon (callers checkpoint manually).
  uint64_t checkpoint_interval_ms = 200;

  /// Live-WAL BYTES that make a checkpoint daemon pass actually checkpoint
  /// (below it the wakeup is an idle skip). Default: 4 MiB. Commit
  /// publication also nudges the daemon early when the live WAL crosses
  /// this. 0 checkpoints on every interval pass.
  uint64_t checkpoint_wal_threshold = 4ull << 20;  // 4 MiB

  /// Size, in BYTES, at which the WAL rolls to a fresh segment file.
  /// Default: 16 MiB. Checkpoints reclaim disk by UNLINKING whole segments
  /// below the stable LSN, so this bounds both the per-file size and
  /// (together with the live bytes) the on-disk WAL footprint on every
  /// backend — no filesystem hole support needed.
  uint64_t wal_segment_size = 16ull << 20;  // 16 MiB

  /// Retired WAL segments kept in a recycle pool, in FILES, and reused for
  /// new segments instead of being unlinked (PostgreSQL-style xlog
  /// recycling: reuse skips the file-creation + directory-fsync cost on
  /// the roll path). Default: 2. 0 = always unlink.
  uint64_t wal_recycle_segments = 2;

  /// Fully-checkpointed WAL segments RETAINED (not retired) beyond the live
  /// chain, in FILES, so a lagging replica can still ship them
  /// (PostgreSQL's wal_keep_size). Default: 0 = retire eagerly. A replica
  /// whose shipping cursor falls behind the oldest retained segment stops
  /// with a Corruption status naming the gap and must be re-seeded.
  /// Consumed by the checkpoint truncation path.
  uint64_t wal_keep_segments = 0;

  /// fsync the WAL on every commit (grouped: concurrent committers share
  /// one fsync per batch through the GroupCommitter). Default: false — the
  /// experiments measure concurrency-control behaviour, not disk stalls.
  bool sync_commits = false;

  /// Hand WAL fsyncs to a dedicated flusher thread: the group-commit
  /// leader enqueues a flush target and releases the leader seat, and
  /// commit acks wait on the flushed-LSN watermark — the next batch forms
  /// while the previous one's fsync runs. Default: true. False restores
  /// the leader-fsync-inline baseline (the E18 bench comparison). Only
  /// observable with sync_commits. Sync failures are STICKY either way:
  /// after any WAL fsync/dir-sync error every later commit fails with a
  /// non-retryable IOError until the store is reopened (see
  /// docs/OPERATIONS.md, durability invariants).
  bool wal_async_flush = true;

  /// Keep the next WAL segment file pre-created (recycled or
  /// fallocate-reserved) by the flusher thread so a segment roll is an
  /// atomic-rename adoption instead of a create+header+fsync on the append
  /// path. Default: true.
  bool wal_preallocate = true;

  /// Most commit records a group-commit leader folds into one batched
  /// append/fsync; later arrivals elect the next leader. Default: 0 = AUTO
  /// (max(8, 4 * hardware_concurrency), capped at 256) — enough to absorb
  /// every plausibly-runnable committer without letting a burst build a
  /// batch whose ack latency is dominated by its own tail.
  size_t group_commit_max_batch = 0;

  // --- replication (read replicas) -----------------------------------------

  /// Attach this database as a READ REPLICA of the primary whose WAL lives
  /// in this directory handle (in-process / in-memory topologies: pass the
  /// primary's own WalDir). Default: null. Mutually exclusive with
  /// replica_of_path. A replica serves snapshot-isolation reads pinned at
  /// its replay watermark; writes and serializable begins fail with
  /// Status::ReplicaReadOnly. Consumed at Open(): wires a
  /// WalDirReplicationSource into the ReplicaApplier daemon.
  std::shared_ptr<WalDir> replica_of;

  /// Attach as a read replica of the primary whose WAL segment directory is
  /// at this filesystem path (cross-process topology; the replica only ever
  /// opens existing files in it, never creates any). Default: empty.
  std::string replica_of_path;

  /// Poll interval of the replica applier daemon, in MILLISECONDS: how
  /// often the replica re-lists the primary's WAL directory and tails the
  /// newest segment when no new records arrived on the previous pass.
  /// Default: 5. Bounds steady-state replication lag from below. Ignored
  /// unless the database is a replica.
  uint64_t replica_poll_interval_ms = 5;

  /// Grace period, in MILLISECONDS, a shipped purge record waits for
  /// conflicting replica snapshots (start_ts below the purge's commit ts)
  /// to finish before the applier cancels them with SnapshotTooOld
  /// (PostgreSQL's max_standby_streaming_delay, per conflict). Default:
  /// 100. 0 cancels immediately. Ignored unless the database is a replica.
  uint64_t replica_conflict_grace_ms = 100;

  /// True when this instance was configured as a read replica.
  bool IsReplica() const {
    return replica_of != nullptr || !replica_of_path.empty();
  }

  // --- locking -------------------------------------------------------------

  /// Lock wait timeout, in MILLISECONDS, for the waiting conflict
  /// policies; a wait longer than this aborts the waiter with
  /// Status::Deadlock. Default: 10000. Backstop only: wait-die breaks
  /// cycles well before this fires.
  uint64_t lock_timeout_ms = 10000;

  // --- auto-size resolution (0 = auto options) -----------------------------

  /// gc_shards with auto resolved: hardware_concurrency clamped to
  /// [1, 64], 4 when the core count is unknown.
  size_t ResolvedGcShards() const {
    if (gc_shards != 0) return std::min<size_t>(gc_shards, 64);
    const size_t hw = std::thread::hardware_concurrency();
    return std::clamp<size_t>(hw == 0 ? 4 : hw, 1, 64);
  }

  /// txn_table_shards with auto resolved: max(16, 2 * cores), capped at 64.
  size_t ResolvedTxnTableShards() const {
    if (txn_table_shards != 0) return txn_table_shards;
    const size_t hw = std::thread::hardware_concurrency();
    return std::clamp<size_t>(2 * hw, 16, 64);
  }

  /// epoch_slots with auto resolved: max(64, 4 * cores).
  size_t ResolvedEpochSlots() const {
    if (epoch_slots != 0) return epoch_slots;
    const size_t hw = std::thread::hardware_concurrency();
    return std::max<size_t>(64, 4 * hw);
  }

  /// ssi_marker_shards with auto resolved: 64 (the LockManager fan-out),
  /// explicit values clamped to [1, 64].
  size_t ResolvedSsiMarkerShards() const {
    if (ssi_marker_shards == 0) return 64;
    return std::clamp<size_t>(ssi_marker_shards, 1, 64);
  }

  /// group_commit_max_batch with auto resolved: max(8, 4 * cores), capped
  /// at 256.
  size_t ResolvedGroupCommitBatch() const {
    if (group_commit_max_batch != 0) return group_commit_max_batch;
    const size_t hw = std::thread::hardware_concurrency();
    return std::clamp<size_t>(4 * hw, 8, 256);
  }
};

}  // namespace neosi

#endif  // NEOSI_COMMON_OPTIONS_H_
