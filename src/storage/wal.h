// Framed write-ahead log over ROTATING fixed-size segment files.
//
// Layout: the log is a chain of segment files `wal.000001`, `wal.000002`, …
// in one WalDir. Each segment starts with an immutable 32-byte header
//
//   [magic u32][version u32][base_lsn u64][epoch u64][crc32c u32][pad]
//
// written once (and synced) when the segment enters the chain; frames follow
// from byte 32. The header never changes afterwards, so there is nothing a
// torn header rewrite could destroy — the dual-slot ping-pong header of the
// single-file WAL is gone. A torn header can only exist on the NEWEST
// segment (a crash during its creation) and Open() simply discards that
// empty file.
//
// Frame format (unchanged): [payload_len u32][crc32c u32][payload bytes].
// Frames never span segments: Append rolls to a fresh segment when the next
// frame would push the file past `WalOptions::segment_size` (a frame larger
// than a whole segment still gets one to itself). The retiring segment is
// synced BEFORE the new one enters the chain, so a valid-prefix walk may
// stop early only in the newest segment (torn tail, truncated away); a short
// frame walk in any older segment is real corruption and recovery says so.
//
// LSNs are LOGICAL byte offsets, monotonic for the lifetime of the log:
// segment N+1's base is exactly where segment N's frames end, so the lsn
// space is contiguous across rolls and truncations. A frame with lsn
// L lives in the segment with the largest base <= L, at physical offset
// kSegmentHeaderSize + (L - base).
//
// Reclamation — the point of rotation — is UNCONDITIONAL on every backend:
// TruncatePrefix(lsn) advances the logical head and unlinks (or parks in a
// recycle pool, capped at WalOptions::recycle_segments) every segment wholly
// below `lsn`. No PUNCH_HOLE, no quiescent rebase: the on-disk footprint is
// bounded by the live bytes plus at most two partial segments. The active
// segment is never unlinked, which also anchors lsn monotonicity across a
// reopen. Recycled files re-enter the chain via write-header-then-rename, so
// a crash at any point leaves either a free file (ignored) or a valid empty
// segment.
//
// Crash ordering at the directory level: retire-sync → create/rename new
// segment → dir sync; head advance is logical (in-memory) and recovery
// re-derives it from the oldest retained segment plus checkpoint markers —
// replay is idempotent, so the segment-granular head after a crash only
// costs replay work, never correctness.
//
// Group commit and LSN pins are unchanged from the single-file WAL: see
// GroupCommitter and StableLsn() below.
//
// Commit I/O (inline group flush, sticky failure):
//
// A durable commit is acked only after the fsync that covers its record has
// completed. The group-commit leader holds the leader seat through its
// batch's append AND fsync (Sync(), on its own thread); the batch's
// followers wake once both are done, and the next batch forms behind them.
// Each fsync pass reads the append cursor first and snapshots the active
// file second, so the flushed-LSN watermark it publishes never runs ahead of
// the bytes the fsync covered.
//
// Sync failures are STICKY: once any fsync/dir-sync of the active chain
// fails, the log is poisoned — every subsequent append/sync/ack fails with
// a non-retryable IOError until the store is reopened and replayed. A
// later fsync returning OK proves nothing: the kernel drops a file's dirty
// pages after reporting an fsync error, so retrying the fsync and acking
// on success silently loses the dropped writes (the PostgreSQL "fsyncgate"
// hole). Recovery-time syncs (inside Open) keep their fail-stop
// behaviour: the open simply fails, nothing is poisoned.
//
// A roll runs inline on the append path: the retiring segment is fsynced,
// then the next segment (recycled from the free pool or freshly created)
// gets its header written and fsynced, and the directory is synced, all
// before the segment enters the chain and takes a frame.

#ifndef NEOSI_STORAGE_WAL_H_
#define NEOSI_STORAGE_WAL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/latch.h"
#include "common/status.h"
#include "storage/paged_file.h"
#include "storage/wal_dir.h"
#include "storage/wal_ops.h"

namespace neosi {

class Wal;

/// Tuning knobs for the segmented log.
struct WalOptions {
  /// Roll to a fresh segment once the current one reaches this many bytes.
  uint64_t segment_size = 16ull << 20;  // 16 MiB
  /// Retired segments kept in the recycle pool for reuse instead of being
  /// unlinked (0 = always unlink).
  uint64_t recycle_segments = 2;
  /// Fully-checkpointed segments RETAINED in the chain beyond the live
  /// prefix so a lagging replica can still read them (0 = retire eagerly).
  /// TruncatePrefix keeps this many extra segments below the cut.
  uint64_t keep_segments = 0;
};

/// Named crash-point hook (tests only; never set on production paths). When
/// armed, the owner calls Check(point) at each named point and treats a
/// non-OK status as the process dying right there: the operation fails
/// without performing any further writes, and the test reopens the store to
/// exercise recovery from exactly that state.
/// Thread-safe: tests install hooks right after open, while the checkpoint
/// and GC daemons may already be evaluating fault points concurrently.
struct FaultHooks {
  using Fn = std::function<Status(const char* point)>;
  void Set(Fn f) {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = std::move(f);
  }
  Status Check(const char* point) const {
    // The hook runs under the lock: installers replace hooks between runs,
    // never from inside one, and serializing Check keeps a hook's own
    // state (hit counters) race-free without burdening every test with it.
    std::lock_guard<std::mutex> lock(mu_);
    return fn_ ? fn_(point) : Status::OK();
  }

 private:
  mutable std::mutex mu_;
  Fn fn_;
};

/// Leader/follower commit batcher over a Wal. Thread-safe.
///
/// A caller enqueues its record and either becomes the batch leader (writes
/// every queued record with one append, syncs once if any participant wants
/// durability) or blocks until a leader has written — and, if requested,
/// synced — its record.
class GroupCommitter {
 public:
  explicit GroupCommitter(Wal* wal);

  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  /// Appends `record`, returning its LSN. When `sync` is true the record is
  /// on stable storage before this returns (possibly via a leader's fsync
  /// that covered a whole batch). When `pin` is true the LSN is pinned (see
  /// Wal::Unpin) from the moment the record enters the log.
  Result<Lsn> Commit(const WalRecord& record, bool sync, bool pin = false);

  /// Batches whose fsync covered more than one record (test / stats hook).
  uint64_t batches() const { return batches_; }
  uint64_t records() const { return records_; }

 private:
  struct Request {
    const WalRecord* record = nullptr;
    bool sync = false;
    bool pin = false;
    bool done = false;
    Status status;
    Lsn lsn = 0;
  };

  Wal* wal_;
  /// Most records one leader folds into a batch: max(8, 4 * cores), capped
  /// at 256 — enough to absorb every plausibly-runnable committer without
  /// letting a burst build a batch whose ack latency is dominated by its
  /// own tail. Later arrivals elect the next leader.
  const size_t max_batch_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request*> queue_;
  bool leader_active_ = false;
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> records_{0};
};

/// Append-only log of WalRecords over rotating segment files.
class Wal {
 public:
  /// Immutable per-segment header preceding the first frame.
  static constexpr uint64_t kSegmentHeaderSize = 32;

  /// File names inside the WalDir.
  static std::string SegmentName(uint64_t index);  ///< "wal.000001"
  static std::string FreeName(uint64_t index);     ///< "wal.free.000001"
  /// Pre-segmentation single-file log; Open() refuses a directory that
  /// holds one and leaves it untouched.
  static constexpr const char* kLegacyName = "wal.log";

  explicit Wal(std::shared_ptr<WalDir> dir, WalOptions options = {});

  /// Discovers, orders and validates the segment chain (creating the first
  /// segment for an empty directory), drops a half-created newest segment,
  /// and positions the append cursor after the newest segment's valid
  /// frame prefix (truncating a torn tail). Removes any `wal.prep.*` file
  /// an earlier version's segment pre-allocation left behind. A gap or
  /// out-of-order base inside the chain is Corruption. A directory holding
  /// a pre-segment `wal.log` is NotSupported, checked before any file is
  /// touched.
  Status Open();

  /// Appends one record; returns its LSN. With pin=true the LSN is pinned
  /// against prefix truncation until Unpin(lsn). Rolls to a new segment at
  /// the size threshold. When `end_lsn` is non-null it receives the lsn one
  /// past the appended frame (the checkpoint uses it to cut the log right
  /// after its own marker).
  Result<Lsn> Append(const WalRecord& record, bool pin = false,
                     Lsn* end_lsn = nullptr);

  /// Appends every record, batching contiguous frames into single writes
  /// (split only at segment rolls). On success `lsns[i]` is the LSN of
  /// `records[i]`; records whose `pins[i]` is true are pinned. `pins` may be
  /// null (nothing pinned).
  Status AppendBatch(const std::vector<const WalRecord*>& records,
                     std::vector<Lsn>* lsns,
                     const std::vector<bool>* pins = nullptr);

  /// Forces every frame appended so far to stable storage on the calling
  /// thread (every older segment was already synced when the chain rolled
  /// past it): cursor first, file snapshot second, fsync, then the
  /// flushed-LSN advance. Passes are serialized by sync_mu_, so no sync
  /// can report OK after a peer's failed fsync poisoned the log. Fails
  /// sticky: once any chain sync fails the log is poisoned (see
  /// poisoned()).
  Status Sync();

  /// Every frame below this LSN is on stable storage.
  Lsn FlushedLsn() const {
    return flushed_lsn_.load(std::memory_order_acquire);
  }

  // --- sticky failure state ---------------------------------------------

  /// True once a sync/dir-sync of the active chain has failed. A poisoned
  /// log rejects every append/sync/truncate until the store is reopened
  /// (which replays only what was durably acked).
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

  /// The sticky non-retryable IOError handed to every operation on a
  /// poisoned log (names the original cause). OK when not poisoned.
  Status PoisonedStatus() const;

  /// The commit batcher bound to this log.
  GroupCommitter& group() { return group_; }

  /// The directory this log lives in. Replication hands this to a
  /// WalDirReplicationSource so an in-process replica can tail the live
  /// primary without going through the filesystem.
  const std::shared_ptr<WalDir>& dir() const { return dir_; }

  /// Replays every live record in order (from the head). Stops cleanly at a
  /// torn tail in the newest segment (which is then truncated so later
  /// appends start from a clean state); a short frame walk in any older
  /// segment is Corruption. Must not race TruncatePrefix.
  Status ReadAll(const std::function<Status(const WalRecord&)>& fn);

  /// Replays every live record at or above `from`, passing each record's
  /// LSN. Segments wholly below `from` are skipped without any read or CRC
  /// work. Same torn-tail handling as ReadAll.
  Status ReadFrom(Lsn from,
                  const std::function<Status(Lsn, const WalRecord&)>& fn);

  // --- fuzzy checkpoint support ----------------------------------------

  /// Drops the log prefix below `lsn`: advances the logical head and
  /// unlinks (or recycles) every segment wholly below it — unconditional
  /// physical reclamation on every backend. Appends proceed concurrently.
  /// `lsn` below the current head is a no-op; `lsn` above the append cursor
  /// is InvalidArgument.
  Status TruncatePrefix(Lsn lsn);

  /// Releases a pin taken by an Append/AppendBatch/group Commit with
  /// pin=true. Call exactly once per pinned lsn, after the record's effects
  /// have durably-orderably reached the stores.
  void Unpin(Lsn lsn);

  /// The fuzzy checkpoint's truncation bound: every record below the
  /// returned lsn has been fully applied to the stores (its appender has
  /// unpinned). Never exceeds the append cursor.
  Lsn StableLsn() const;

  /// Currently pinned lsns (test / stats hook).
  size_t PinnedCount() const;

  // --- introspection ----------------------------------------------------

  /// Bytes in the live log: append cursor minus head.
  uint64_t SizeBytes() const {
    return next_lsn_.load(std::memory_order_acquire) -
           head_lsn_.load(std::memory_order_acquire);
  }

  /// First live lsn (everything below is checkpointed away). Segment-
  /// granular after a reopen (the oldest retained segment's base).
  Lsn HeadLsn() const { return head_lsn_.load(std::memory_order_acquire); }

  /// The lsn the next append will receive.
  Lsn NextLsn() const { return next_lsn_.load(std::memory_order_acquire); }

  /// Segments currently in the chain (>= 1; the active one always stays).
  uint64_t SegmentCount() const {
    return segment_count_.load(std::memory_order_acquire);
  }

  /// Bytes of all chain segment files (headers + frames + any dead prefix
  /// not yet rolled past) — the physical footprint rotation bounds.
  uint64_t PhysicalBytes() const;

  /// Segment lifecycle counters.
  uint64_t segments_created() const { return segments_created_.load(); }
  uint64_t segments_deleted() const { return segments_deleted_.load(); }
  uint64_t segments_recycled() const { return segments_recycled_.load(); }
  uint64_t segments_reused() const { return segments_reused_.load(); }

  /// Physical offset of `lsn` WITHIN its containing segment (test hook:
  /// lets tests inject torn frames at known byte positions).
  uint64_t PhysOf(Lsn lsn) const;

  /// File name of the segment containing `lsn` (test hook).
  std::string SegmentNameOf(Lsn lsn) const;

  /// Named crash points (tests only): "wal.append.mid_frame",
  /// "wal.segment.post_create", "wal.truncate.pre_unlink",
  /// "wal.append.fail_after_roll"; and EIO sync points (a non-OK status
  /// simulates the fsync/dir-sync itself failing, which POISONS the log):
  /// "wal.sync.fail" (active-segment fsync),
  /// "wal.sync.retiring" (retiring-segment fsync at a roll),
  /// "wal.dirsync.create" / "wal.dirsync.rename" / "wal.dirsync.unlink"
  /// (fresh segment create / recycled segment rename / retirement
  /// directory syncs).
  FaultHooks fault_hooks;

 private:
  friend class GroupCommitter;

  struct Segment {
    uint64_t index = 0;
    Lsn base = 0;
    uint64_t epoch = 0;
    /// Shared so Sync() can fsync outside seg_mu_ while a roll and a
    /// concurrent TruncatePrefix destroy the Segment (fsync of an unlinked
    /// file is harmless).
    std::shared_ptr<PagedFile> file;
  };

  static Status WriteSegmentHeader(PagedFile* file, Lsn base, uint64_t epoch);
  static Status ReadSegmentHeader(PagedFile* file, Lsn* base, uint64_t* epoch,
                                  bool* valid);

  /// Opens (recycled or fresh) a segment anchored at `base`, syncs its
  /// header and the directory, and appends it to the chain. Caller holds
  /// latch_ (or is single-threaded Open).
  Status AddSegmentLocked(Lsn base);

  /// Retiring-segment fsync at a roll (named EIO point; poisons on
  /// failure). Caller holds latch_.
  Status SyncRetiringLocked(Segment* retiring);

  /// Writes `n` frame bytes at `lsn` (which must be the append cursor),
  /// syncing + rolling the active segment first when the frame would not
  /// fit. Advances nothing — the caller publishes next_lsn_ after pins are
  /// registered. Caller holds latch_ (or is single-threaded Open).
  Status WriteFrameAtLocked(Lsn lsn, const char* data, size_t n);

  /// Failure cleanup for the append paths: pops (and deletes) every chain
  /// segment whose base lies above the published cursor. Such segments can
  /// only exist when a batched append rolled mid-batch and then failed —
  /// nothing published lives in them, but leaving them would strand the
  /// cursor BELOW the active segment's base and brick every later append
  /// on an underflowed offset. Caller holds latch_.
  void RollbackUnpublishedSegmentsLocked();

  /// Retires the named chain segment file: recycle-pool rename while the
  /// pool has room, unlink otherwise.
  Status RetireSegmentFile(const std::string& name, uint64_t index);

  /// Segment containing `lsn` (largest base <= lsn); caller holds seg_mu_.
  const Segment* SegmentAtLocked(Lsn lsn) const;

  /// Body of Open(): everything up to the watermark bring-up.
  Status OpenChain();

  // --- poison internals -------------------------------------------------

  /// OK, or the sticky poison IOError. Entry check of every append / sync
  /// / truncate path (acquire side of the poison publication).
  Status CheckPoisoned() const;

  /// Records `cause` (first failure wins) and publishes the poison flag
  /// with release ordering. No-op before Open() completes — recovery-time
  /// sync failures stay fail-stop.
  void Poison(const Status& cause);

  Status PoisonedStatusLocked() const;  // poison_mu_ held

  /// Injected-EIO fidelity: models the kernel dropping the file's DIRTY
  /// pages after a failed fsync — everything beyond the flushed watermark
  /// (clean, previously-synced bytes survive) is truncated away before the
  /// log is poisoned.
  void SimulateSyncLoss(const std::shared_ptr<PagedFile>& file, Lsn base);

  std::shared_ptr<WalDir> dir_;
  WalOptions options_;

  SpinLatch latch_;  // serializes appends (file write + cursor advance)
  std::atomic<Lsn> head_lsn_{0};
  std::atomic<Lsn> next_lsn_{0};

  /// Chain of segments ordered by base. Structure guarded by seg_mu_; the
  /// BACK element only changes under latch_ (appends/rolls), the FRONT only
  /// under trunc_mu_ (truncation), and the active segment is never popped —
  /// so an appender holding latch_ may use active_ without seg_mu_.
  mutable std::mutex seg_mu_;
  std::deque<std::unique_ptr<Segment>> segments_;
  std::atomic<Segment*> active_{nullptr};
  std::atomic<uint64_t> segment_count_{0};

  /// Next segment file number; monotonic, never reused (so truncation keeps
  /// chain indices contiguous and recycled names can't collide).
  uint64_t next_index_ = 1;
  /// This open's generation, stamped into headers of segments it creates.
  uint64_t epoch_ = 1;

  /// Names of retired segment files available for reuse (bounded by
  /// options_.recycle_segments). Guarded by seg_mu_.
  std::deque<std::string> free_pool_;

  std::atomic<uint64_t> segments_created_{0};
  std::atomic<uint64_t> segments_deleted_{0};
  std::atomic<uint64_t> segments_recycled_{0};
  std::atomic<uint64_t> segments_reused_{0};

  /// Set once Open() succeeds: sync failures before that are fail-stop
  /// (the open errors out), after it they poison.
  std::atomic<bool> open_complete_{false};

  /// Sticky failure flag. Published with RELEASE after poison_cause_ is
  /// recorded under poison_mu_; read with ACQUIRE by CheckPoisoned() and by
  /// Sync()'s pre-fsync check, so a thread that observes the flag also
  /// observes the cause — and, because fsync passes are serialized by
  /// sync_mu_, no sync can report OK after a peer's EIO poisoned the log.
  std::atomic<bool> poisoned_{false};
  mutable std::mutex poison_mu_;
  Status poison_cause_;  // guarded by poison_mu_

  /// Serializes fsync passes (Sync) so the fault-check → simulate →
  /// poison sequence of one syncer is atomic against a peer's fsync+check.
  std::mutex sync_mu_;

  /// Monotonic watermark: every frame below it is on stable storage.
  /// Advanced by Sync() under sync_mu_; lowered only by ReadFrom's
  /// torn-tail shave during single-threaded recovery.
  std::atomic<Lsn> flushed_lsn_{0};

  GroupCommitter group_{this};

  /// Serializes truncations (TruncatePrefix) and head updates.
  std::mutex trunc_mu_;

  /// Pinned lsns: appended records whose effects have not yet reached the
  /// stores. Insertion happens before the cursor advance publishes the
  /// record; see StableLsn() for the resulting ordering argument.
  mutable std::mutex pins_mu_;
  std::set<Lsn> pins_;
};

}  // namespace neosi

#endif  // NEOSI_STORAGE_WAL_H_
