// Background garbage-collection workers. The paper's GC is cheap enough
// (O(garbage) per pass, E8) to run continuously without stalling
// processing — the property that PostgreSQL's vacuum lacks (§4).
//
// Topology: ONE drain worker thread per GC-list shard (shard i is drained
// only by worker i, so shard drains never contend with each other; the
// worker count is options.gc_shards). The daemon is the only automatic
// reclamation path — no GC work runs on the commit path. Workers wake on a
// fixed interval, and commit publication nudges them early whenever the
// aggregate GcList backlog crosses the configured threshold — a lock-free
// gauge read plus a rare notify. Every pass drains its shard strictly up
// to the publication/active-transaction watermark, so a version some live
// snapshot can still read is never reclaimed.
//
// Snapshot lifecycle: worker 0 (the "primary") additionally runs the
// snapshot expiry sweep (ActiveTxnTable::ExpireSnapshots) on every wakeup —
// age-based (snapshot_max_age_ms) plus backlog-pressure eviction of the
// watermark-pinning cohort (snapshot_expire_backlog) — and carries the
// global per-pass extras (index compaction and the epoch bump+drain tick
// that frees limbo versions retired by the latch-free read path) that must
// not run once per shard. The epoch tick runs on idle skips too, so
// abort-path retirees are freed even when nothing is reclaimable. Object
// cache eviction is not the daemon's job: the cache evicts on its own
// insert path (ObjectCache), so its capacity holds with the daemon off.

#ifndef NEOSI_GRAPH_GC_DAEMON_H_
#define NEOSI_GRAPH_GC_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "graph/garbage_collector.h"
#include "mvcc/gc_list.h"
#include "txn/active_txn_table.h"
#include "txn/timestamp_oracle.h"

namespace neosi {

/// Watermark-paced asynchronous reclamation workers over a GcEngine.
class GcDaemon {
 public:
  /// `oracle` + `active_txns` supply the reclamation watermark (the table
  /// is mutable: the primary worker marks snapshots expired on it);
  /// `gc_list` is the sharded backlog — one worker thread is spawned per
  /// shard. `backlog_threshold` == 0 disables nudging (interval pacing
  /// only). `snapshot_max_age_ms` / `snapshot_expire_backlog` == 0 disable
  /// the respective expiry triggers.
  GcDaemon(GcEngine* gc, const TimestampOracle* oracle,
           ActiveTxnTable* active_txns, ShardedGcList* gc_list,
           uint64_t interval_ms, uint64_t backlog_threshold,
           uint64_t snapshot_max_age_ms, uint64_t snapshot_expire_backlog);
  ~GcDaemon();

  GcDaemon(const GcDaemon&) = delete;
  GcDaemon& operator=(const GcDaemon&) = delete;

  /// Starts the worker threads (idempotent).
  void Start();

  /// Stops and joins every worker (idempotent; also done by the
  /// destructor). Safe to call during in-flight passes: each pass
  /// completes, then its thread exits.
  void Stop();

  /// Wakes every worker for an immediate pass, without waiting for the
  /// interval.
  void Nudge();

  /// Commit-publication hook: nudges iff the aggregate GcList backlog has
  /// reached the threshold. The common case is one relaxed atomic load; an
  /// already armed nudge is never re-notified.
  void NudgeIfBacklogged();

  bool running() const { return running_.load(std::memory_order_acquire); }

  size_t worker_count() const { return shard_count_; }

  /// Totals across all workers and passes so far. A "pass" is one worker
  /// draining one shard (so one daemon cycle contributes up to
  /// worker_count() passes).
  uint64_t passes() const { return passes_.load(std::memory_order_relaxed); }
  uint64_t nudge_passes() const {
    return nudge_passes_.load(std::memory_order_relaxed);
  }
  uint64_t interval_passes() const {
    return interval_passes_.load(std::memory_order_relaxed);
  }
  /// Wakeups that found nothing reclaimable in their shard below the
  /// watermark and skipped the pass entirely.
  uint64_t idle_skips() const {
    return idle_skips_.load(std::memory_order_relaxed);
  }
  uint64_t versions_pruned() const {
    return versions_pruned_.load(std::memory_order_relaxed);
  }
  uint64_t tombstones_purged() const {
    return tombstones_purged_.load(std::memory_order_relaxed);
  }
  /// Node purges deferred across shard-drain passes (see GcStats).
  uint64_t purges_deferred() const {
    return purges_deferred_.load(std::memory_order_relaxed);
  }

  uint64_t backlog_threshold() const { return backlog_threshold_; }

 private:
  void Loop(size_t shard);

  /// Primary-worker expiry sweep: age expiry plus backlog-pressure
  /// eviction when the backlog is over threshold AND pinned (its head is
  /// not reclaimable below the current watermark).
  void MaybeExpireSnapshots();

  GcEngine* const gc_;
  const TimestampOracle* const oracle_;
  ActiveTxnTable* const active_txns_;
  ShardedGcList* const gc_list_;
  const size_t shard_count_;
  const uint64_t interval_ms_;
  const uint64_t backlog_threshold_;
  const uint64_t snapshot_max_age_ms_;
  const uint64_t snapshot_expire_backlog_;

  /// Serializes Start()/Stop() transitions end to end (held ACROSS the
  /// joins, which mu_ cannot be — workers need mu_ to observe the stop
  /// flag). Without it a Start() racing a mid-join Stop() could clear
  /// stop_requested_ before the outgoing workers saw it, wedging Stop()
  /// on threads that never exit.
  std::mutex lifecycle_mu_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  /// Nudge generation: bumped by Nudge(), observed per worker (a worker
  /// that slept through N nudges reacts once — the pass it runs sees the
  /// freshest watermark anyway).
  uint64_t nudge_seq_ = 0;
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  /// Collapses the per-commit nudge storm above the threshold into one
  /// notify until a worker has reacted.
  std::atomic<bool> nudge_armed_{false};

  std::atomic<uint64_t> passes_{0};
  std::atomic<uint64_t> nudge_passes_{0};
  std::atomic<uint64_t> interval_passes_{0};
  std::atomic<uint64_t> idle_skips_{0};
  std::atomic<uint64_t> versions_pruned_{0};
  std::atomic<uint64_t> tombstones_purged_{0};
  std::atomic<uint64_t> purges_deferred_{0};
};

}  // namespace neosi

#endif  // NEOSI_GRAPH_GC_DAEMON_H_
