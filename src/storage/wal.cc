#include "storage/wal.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/coding.h"

namespace neosi {

namespace {

constexpr size_t kFrameHeader = 8;  // u32 length + u32 crc

// Segment header byte layout: magic(4) version(4) base(8) epoch(8) crc(4),
// zero-padded to Wal::kSegmentHeaderSize. "NWS1".
constexpr uint32_t kSegmentMagic = 0x3153574e;
constexpr uint32_t kSegmentVersion = 1;
constexpr size_t kSegmentCrcOffset = 24;

std::string IndexedName(const char* prefix, uint64_t index) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s%06llu", prefix,
                static_cast<unsigned long long>(index));
  return buf;
}

/// Walks the valid frame prefix of `file` from `offset` to `size`: for each
/// frame whose length and checksum hold, invokes `fn(frame_offset,
/// payload)`; stops at the first invalid frame (torn tail). Returns the
/// offset one past the last valid frame. The single definition of what "a
/// valid frame prefix" means — Open's cursor scan and replay both walk
/// through here.
Result<uint64_t> WalkFrames(
    PagedFile* file, uint64_t offset, uint64_t size,
    const std::function<Status(uint64_t, const Slice&)>& fn) {
  std::vector<char> buf;
  while (offset + kFrameHeader <= size) {
    char header[kFrameHeader];
    NEOSI_RETURN_IF_ERROR(file->ReadAt(offset, kFrameHeader, header));
    const uint32_t len = DecodeFixed32(header);
    const uint32_t crc = DecodeFixed32(header + 4);
    if (len == 0 || offset + kFrameHeader + len > size) break;
    buf.resize(len);
    NEOSI_RETURN_IF_ERROR(file->ReadAt(offset + kFrameHeader, len,
                                       buf.data()));
    if (Crc32c(buf.data(), len) != crc) break;
    NEOSI_RETURN_IF_ERROR(fn(offset, Slice(buf.data(), len)));
    offset += kFrameHeader + len;
  }
  return offset;
}

/// True iff `name` is `prefix` followed by one or more digits; extracts the
/// numeric suffix.
bool ParseIndexed(const std::string& name, const std::string& prefix,
                  uint64_t* index) {
  if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix))
    return false;
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *index = value;
  return true;
}

}  // namespace

std::string Wal::SegmentName(uint64_t index) {
  return IndexedName("wal.", index);
}

std::string Wal::FreeName(uint64_t index) {
  return IndexedName("wal.free.", index);
}

std::string Wal::PrepName(uint64_t seq) {
  return IndexedName("wal.prep.", seq);
}

Wal::Wal(std::shared_ptr<WalDir> dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {
  if (options_.segment_size < kSegmentHeaderSize + kFrameHeader) {
    options_.segment_size = kSegmentHeaderSize + kFrameHeader;
  }
}

Wal::~Wal() { StopFlusher(); }

// --- sticky poison state --------------------------------------------------

Status Wal::PoisonedStatusLocked() const {
  return Status::IOError("wal poisoned by earlier sync failure (" +
                         poison_cause_.ToString() +
                         "); reopen the store to recover");
}

Status Wal::PoisonedStatus() const {
  if (!poisoned_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> guard(flush_mu_);
  return PoisonedStatusLocked();
}

Status Wal::CheckPoisoned() const {
  if (!poisoned_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> guard(flush_mu_);
  return PoisonedStatusLocked();
}

void Wal::Poison(const Status& cause) {
  // Recovery-time failures stay fail-stop: Open() itself errors out and no
  // state survives to need poisoning.
  if (!open_complete_.load(std::memory_order_acquire)) return;
  std::vector<std::shared_ptr<FlushWaiter>> wake;
  {
    std::lock_guard<std::mutex> guard(flush_mu_);
    if (!poisoned_.load(std::memory_order_relaxed)) {
      poison_cause_ = cause;
      // RELEASE-publish after the cause is recorded: CheckPoisoned()'s
      // acquire load then always finds the cause it is about to report.
      poisoned_.store(true, std::memory_order_release);
    }
    // Fail every parked commit ack whose flush will now never happen.
    for (auto& [lsn, waiter] : flush_waiters_) wake.push_back(waiter);
    flush_waiters_.clear();
  }
  for (auto& waiter : wake) waiter->cv.notify_all();
  flush_cv_.notify_all();
}

Status Wal::WriteSegmentHeader(PagedFile* file, Lsn base, uint64_t epoch) {
  char buf[kSegmentHeaderSize] = {};
  EncodeFixed32(buf, kSegmentMagic);
  EncodeFixed32(buf + 4, kSegmentVersion);
  EncodeFixed64(buf + 8, base);
  EncodeFixed64(buf + 16, epoch);
  EncodeFixed32(buf + kSegmentCrcOffset, Crc32c(buf, kSegmentCrcOffset));
  return file->WriteAt(0, buf, kSegmentHeaderSize);
}

Status Wal::ReadSegmentHeader(PagedFile* file, Lsn* base, uint64_t* epoch,
                              bool* valid) {
  *valid = false;
  if (file->Size() < kSegmentHeaderSize) return Status::OK();
  char buf[kSegmentHeaderSize];
  NEOSI_RETURN_IF_ERROR(file->ReadAt(0, kSegmentHeaderSize, buf));
  if (DecodeFixed32(buf) != kSegmentMagic) return Status::OK();
  if (DecodeFixed32(buf + kSegmentCrcOffset) !=
      Crc32c(buf, kSegmentCrcOffset)) {
    return Status::OK();  // Torn header (crash during segment creation).
  }
  if (DecodeFixed32(buf + 4) != kSegmentVersion) {
    return Status::Corruption("wal segment header: unsupported version");
  }
  *base = DecodeFixed64(buf + 8);
  *epoch = DecodeFixed64(buf + 16);
  *valid = true;
  return Status::OK();
}

Status Wal::AddSegmentLocked(Lsn base) {
  {
    std::unique_ptr<PreparedSegment> prep;
    {
      std::lock_guard<std::mutex> guard(seg_mu_);
      prep = std::move(prepared_);
    }
    if (prep != nullptr) return AdoptPreparedLocked(base, std::move(prep));
  }
  const uint64_t index = next_index_;
  const std::string name = SegmentName(index);
  std::string free_name;
  {
    std::lock_guard<std::mutex> guard(seg_mu_);
    if (!free_pool_.empty()) {
      free_name = free_pool_.front();
      free_pool_.pop_front();
    }
  }
  std::unique_ptr<PagedFile> file;
  Status s;
  if (!free_name.empty()) {
    // Recycle: rewrite the file (truncate + header + sync) while it still
    // carries its free-pool name, then publish it into the chain with one
    // atomic rename. A crash before the rename leaves a free file that Open
    // ignores; after it, a valid empty segment.
    s = dir_->Open(free_name, &file);
    if (s.ok()) s = file->Truncate(0);
    if (s.ok()) s = WriteSegmentHeader(file.get(), base, epoch_);
    if (s.ok()) s = file->Sync();
    if (!s.ok()) {
      Poison(s);  // A failed fsync of the next chain link is sticky too.
      return s;   // Still free-named: ignored at any reopen.
    }
    s = dir_->Rename(free_name, name);
    if (!s.ok()) return s;
    s = fault_hooks.Check("wal.dirsync.rename");
    if (s.ok()) s = dir_->SyncDir();
    if (!s.ok()) {
      Poison(s);
      return s;
    }
    segments_reused_.fetch_add(1, std::memory_order_relaxed);
  } else {
    NEOSI_RETURN_IF_ERROR(dir_->Open(name, &file));
    // Truncate even the "fresh" file: a failed rollback Remove can leave a
    // prior life of this index on disk, and stale valid-CRC frames beyond
    // the new prefix would otherwise be replayable after a crash.
    s = file->Truncate(0);
    if (s.ok()) s = WriteSegmentHeader(file.get(), base, epoch_);
    if (s.ok()) s = file->Sync();
    if (s.ok()) {
      s = fault_hooks.Check("wal.dirsync.create");
      if (s.ok()) s = dir_->SyncDir();
    }
    if (!s.ok()) {
      // Take the half-created file back out of the chain position (see the
      // post_create cleanup below for why leaving it would be fatal).
      file.reset();
      (void)dir_->Remove(name);
      (void)dir_->SyncDir();
      Poison(s);
      return s;
    }
    segments_created_.fetch_add(1, std::memory_order_relaxed);
  }
  // The segment file exists with a synced header but is not yet active: a
  // crash RIGHT HERE leaves a chain Open() accepts (a valid empty newest
  // segment).
  if (s.ok()) s = fault_hooks.Check("wal.segment.post_create");
  if (!s.ok()) {
    // Transient failure with the file already sitting in the chain
    // position ON DISK but not adopted in memory. A process that keeps
    // running would desynchronize the chains — smaller later frames can
    // keep fitting into the previous segment, growing it past this file's
    // recorded base — so take the file back out before surfacing the
    // error. (A real crash performs no cleanup; Open() handles that state
    // instead.)
    file.reset();
    (void)dir_->Remove(name);
    (void)dir_->SyncDir();
    return s;
  }

  auto segment = std::make_unique<Segment>();
  segment->index = index;
  segment->base = base;
  segment->epoch = epoch_;
  segment->file = std::move(file);
  {
    std::lock_guard<std::mutex> guard(seg_mu_);
    segments_.push_back(std::move(segment));
    active_.store(segments_.back().get(), std::memory_order_release);
    segment_count_.store(segments_.size(), std::memory_order_release);
  }
  next_index_ = index + 1;
  return Status::OK();
}

Status Wal::AdoptPreparedLocked(Lsn base,
                                std::unique_ptr<PreparedSegment> prep) {
  const uint64_t index = next_index_;
  const std::string name = SegmentName(index);
  Status s;
  // At most ONE adoption rename may be un-dir-synced at a time: if the
  // previous one is still pending, make it durable before renaming again —
  // otherwise a crash could persist THIS rename but not the previous one
  // and leave an index gap Open() rightly refuses.
  if (dir_sync_pending_.exchange(false, std::memory_order_acq_rel)) {
    s = fault_hooks.Check("wal.dirsync.rename");
    if (s.ok()) s = dir_->SyncDir();
    if (!s.ok()) {
      dir_sync_pending_.store(true, std::memory_order_release);
      Poison(s);
      return s;
    }
  }
  s = dir_->Rename(prep->name, name);
  if (s.ok()) {
    // BUFFERED header write — no fsync on the append path. Safe to defer:
    // an ack requires a flush of this (about to be active) file, and that
    // same fsync covers the header. A crash before any flush leaves an
    // invalid header on the NEWEST segment, which Open() discards — and
    // nothing acked can have lived there.
    s = WriteSegmentHeader(prep->file.get(), base, epoch_);
  }
  if (s.ok()) s = fault_hooks.Check("wal.segment.post_create");
  if (!s.ok()) {
    // Same cleanup contract as the inline path: the file must not squat in
    // the chain position while the process keeps running. If the rename
    // itself failed the prep name survives instead — remove that.
    prep->file.reset();
    (void)dir_->Remove(name);
    (void)dir_->Remove(prep->name);
    (void)dir_->SyncDir();
    NudgeFlusherPrep();
    return s;
  }
  // The rename's dir entry rides the flusher's next pass (or the next
  // roll, whichever comes first).
  dir_sync_pending_.store(true, std::memory_order_release);

  auto segment = std::make_unique<Segment>();
  segment->index = index;
  segment->base = base;
  segment->epoch = epoch_;
  segment->file = std::move(prep->file);
  {
    std::lock_guard<std::mutex> guard(seg_mu_);
    segments_.push_back(std::move(segment));
    active_.store(segments_.back().get(), std::memory_order_release);
    segment_count_.store(segments_.size(), std::memory_order_release);
  }
  next_index_ = index + 1;
  if (!prep->from_free_pool) {
    segments_created_.fetch_add(1, std::memory_order_relaxed);
  }
  segments_preallocated_.fetch_add(1, std::memory_order_relaxed);
  NudgeFlusherPrep();
  return Status::OK();
}

Status Wal::SyncRetiringLocked(Segment* retiring) {
  Status fault = fault_hooks.Check("wal.sync.retiring");
  if (!fault.ok()) {
    SimulateSyncLoss(retiring->file, retiring->base);
    Poison(fault);
    return fault;
  }
  Status s = retiring->file->Sync();
  if (!s.ok()) Poison(s);
  return s;
}

Status Wal::Open() {
  NEOSI_RETURN_IF_ERROR(OpenChain());
  // Everything recovery kept was read back from the files themselves, so
  // the watermark starts at the cursor.
  flushed_lsn_.store(next_lsn_.load(std::memory_order_relaxed),
                     std::memory_order_release);
  // From here on sync failures poison instead of failing the open.
  open_complete_.store(true, std::memory_order_release);
  StartFlusher();
  return Status::OK();
}

Status Wal::OpenChain() {
  std::vector<std::string> names;
  NEOSI_RETURN_IF_ERROR(dir_->List(&names));

  // A pre-segment single-file log is refused before anything in the
  // directory is removed or adopted, so the file is left as it was.
  if (std::find(names.begin(), names.end(), kLegacyName) != names.end()) {
    return Status::NotSupported(std::string("wal: ") + kLegacyName +
                                " is a pre-segment single-file log, which "
                                "this version cannot read");
  }

  std::vector<std::pair<uint64_t, std::string>> chain_names;
  std::vector<std::pair<uint64_t, std::string>> free_names;
  std::vector<std::string> prep_names;
  for (const std::string& name : names) {
    uint64_t index = 0;
    if (ParseIndexed(name, "wal.free.", &index)) {
      free_names.emplace_back(index, name);
    } else if (ParseIndexed(name, "wal.prep.", &index)) {
      prep_names.push_back(name);
    } else if (ParseIndexed(name, "wal.", &index)) {
      chain_names.emplace_back(index, name);
    }
    // Anything else in the directory (store files) is not ours.
  }

  // Stale pre-allocations from the previous life — headerless scratch, or
  // an adoption whose rename never became durable (then the frames in it
  // were never flushed-acked, see the adoption protocol). Either way: not
  // part of the chain, remove.
  for (const std::string& name : prep_names) {
    NEOSI_RETURN_IF_ERROR(dir_->Remove(name));
  }
  if (!prep_names.empty()) {
    NEOSI_RETURN_IF_ERROR(dir_->SyncDir());
  }
  std::sort(chain_names.begin(), chain_names.end());
  std::sort(free_names.begin(), free_names.end());

  next_index_ = 1;
  for (const auto& [index, name] : chain_names) {
    next_index_ = std::max(next_index_, index + 1);
  }
  for (const auto& [index, name] : free_names) {
    next_index_ = std::max(next_index_, index + 1);
  }

  // Adopt free files into the recycle pool up to its cap; drop the rest.
  for (const auto& [index, name] : free_names) {
    if (free_pool_.size() < options_.recycle_segments) {
      free_pool_.push_back(name);
    } else {
      NEOSI_RETURN_IF_ERROR(dir_->Remove(name));
    }
  }

  for (size_t i = 0; i < chain_names.size(); ++i) {
    const auto& [index, name] = chain_names[i];
    std::unique_ptr<PagedFile> file;
    NEOSI_RETURN_IF_ERROR(dir_->Open(name, &file));
    Lsn base = 0;
    uint64_t epoch = 0;
    bool valid = false;
    NEOSI_RETURN_IF_ERROR(
        ReadSegmentHeader(file.get(), &base, &epoch, &valid));
    if (!valid) {
      if (i + 1 == chain_names.size()) {
        // Crash while creating the newest segment: its header never became
        // durable, so no frame can have entered it (appends only target a
        // segment after its header synced). Discard the husk.
        file.reset();
        NEOSI_RETURN_IF_ERROR(dir_->Remove(name));
        NEOSI_RETURN_IF_ERROR(dir_->SyncDir());
        break;
      }
      return Status::Corruption("wal segment " + name +
                                ": bad header inside the chain");
    }
    auto segment = std::make_unique<Segment>();
    segment->index = index;
    segment->base = base;
    segment->epoch = epoch;
    segment->file = std::move(file);
    segments_.push_back(std::move(segment));
  }

  // Chain validation: indices contiguous (a missing middle segment is a
  // hole in the lsn space), bases strictly increasing (an out-of-order or
  // duplicated base means an orphan from some other life of the log).
  for (size_t i = 1; i < segments_.size(); ++i) {
    if (segments_[i]->index != segments_[i - 1]->index + 1) {
      return Status::Corruption(
          "wal segment gap: " + SegmentName(segments_[i - 1]->index) +
          " is followed by " + SegmentName(segments_[i]->index));
    }
    if (segments_[i]->base <= segments_[i - 1]->base) {
      return Status::Corruption(
          "wal segment order: " + SegmentName(segments_[i]->index) +
          " base does not advance past its predecessor");
    }
  }

  uint64_t max_epoch = 0;
  for (const auto& segment : segments_) {
    max_epoch = std::max(max_epoch, segment->epoch);
  }
  epoch_ = max_epoch + 1;

  if (segments_.empty()) {
    return AddSegmentLocked(0);  // head_lsn_ and next_lsn_ stay 0.
  }

  {
    std::lock_guard<std::mutex> guard(seg_mu_);
    active_.store(segments_.back().get(), std::memory_order_release);
    segment_count_.store(segments_.size(), std::memory_order_release);
  }
  head_lsn_.store(segments_.front()->base, std::memory_order_relaxed);

  // Position the cursor after the newest segment's valid frame prefix,
  // truncating a torn tail (crash mid-append). Older segments were synced
  // before the chain rolled past them; their frames are validated when
  // replay actually reads them.
  Segment* active = active_.load(std::memory_order_relaxed);
  const uint64_t size = active->file->Size();
  auto end = WalkFrames(active->file.get(), kSegmentHeaderSize, size,
                        [](uint64_t, const Slice&) { return Status::OK(); });
  if (!end.ok()) return end.status();
  if (*end < size) {
    NEOSI_RETURN_IF_ERROR(active->file->Truncate(*end));
  }
  next_lsn_.store(active->base + (*end - kSegmentHeaderSize),
                  std::memory_order_relaxed);
  return Status::OK();
}

void Wal::RollbackUnpublishedSegmentsLocked() {
  for (;;) {
    std::string victim;
    {
      std::lock_guard<std::mutex> guard(seg_mu_);
      if (segments_.size() <= 1 ||
          segments_.back()->base <=
              next_lsn_.load(std::memory_order_relaxed)) {
        break;
      }
      // The segment holds no published frame (its base is above the
      // cursor): un-roll it so the cursor's segment is active again —
      // otherwise every later append would compute its offset against a
      // base ABOVE the cursor and underflow.
      next_index_ = segments_.back()->index;
      victim = SegmentName(segments_.back()->index);
      segments_.pop_back();
      active_.store(segments_.back().get(), std::memory_order_release);
      segment_count_.store(segments_.size(), std::memory_order_release);
    }
    // Best-effort, but dir-synced: an un-durable unlink could resurrect
    // this file after a crash with a base the surviving active segment has
    // since grown past, and Open() would refuse the chain. A leftover from
    // a FAILED remove is defused at the next roll, which reuses the index
    // and truncates the file before writing its fresh header.
    (void)dir_->Remove(victim);
    (void)dir_->SyncDir();
  }
}

Status Wal::WriteFrameAtLocked(Lsn lsn, const char* data, size_t n) {
  Segment* active = active_.load(std::memory_order_relaxed);
  uint64_t phys = kSegmentHeaderSize + (lsn - active->base);
  if (lsn > active->base && phys + n > options_.segment_size) {
    // Roll: the retiring segment is synced BEFORE the new one enters the
    // chain, so a valid-prefix walk can stop early only in the newest
    // segment. (A frame larger than a whole segment gets one to itself —
    // the roll happens, the oversized write below still succeeds.) This
    // sync stays on the append path even with a flusher: older segments
    // must be fully durable before the chain grows past them.
    NEOSI_RETURN_IF_ERROR(SyncRetiringLocked(active));
    NEOSI_RETURN_IF_ERROR(AddSegmentLocked(lsn));
    active = active_.load(std::memory_order_relaxed);
    phys = kSegmentHeaderSize;
    // Post-roll write-failure crash point — same site the batched path
    // exposes, so single-record appenders (the replica applier's re-log
    // path) exercise the un-roll too.
    NEOSI_RETURN_IF_ERROR(fault_hooks.Check("wal.append.fail_after_roll"));
  }
  return active->file->WriteAt(phys, data, n);
}

Result<Lsn> Wal::Append(const WalRecord& record, bool pin, Lsn* end_lsn) {
  std::string payload;
  record.EncodeTo(&payload);

  std::string frame;
  frame.reserve(kFrameHeader + payload.size());
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  PutFixed32(&frame, Crc32c(payload.data(), payload.size()));
  frame.append(payload);

  std::lock_guard<SpinLatch> guard(latch_);
  // Sticky-poison check on the single-record path too — an appender must
  // not grow a log whose durability is already unprovable.
  NEOSI_RETURN_IF_ERROR(CheckPoisoned());
  const Lsn lsn = next_lsn_.load(std::memory_order_relaxed);
  {
    Status fault = fault_hooks.Check("wal.append.mid_frame");
    if (!fault.ok()) {
      // Simulated mid-append crash: half the frame lands, the cursor never
      // advances. Recovery must detect and truncate the torn bytes.
      Segment* active = active_.load(std::memory_order_relaxed);
      active->file->WriteAt(kSegmentHeaderSize + (lsn - active->base),
                            frame.data(), frame.size() / 2);
      return fault;
    }
  }
  {
    Status s = WriteFrameAtLocked(lsn, frame.data(), frame.size());
    if (!s.ok()) {
      RollbackUnpublishedSegmentsLocked();
      return s;
    }
  }
  if (pin) {
    std::lock_guard<std::mutex> pin_guard(pins_mu_);
    pins_.insert(lsn);
  }
  // Release-publish AFTER the pin is registered: StableLsn() reads the
  // cursor first, so any record it can observe below the cursor has its pin
  // already visible (or has been deliberately appended unpinned).
  next_lsn_.store(lsn + frame.size(), std::memory_order_release);
  if (end_lsn != nullptr) *end_lsn = lsn + frame.size();
  return lsn;
}

Status Wal::AppendBatch(const std::vector<const WalRecord*>& records,
                        std::vector<Lsn>* lsns,
                        const std::vector<bool>* pins) {
  lsns->clear();
  lsns->reserve(records.size());

  // Encode every frame into one contiguous buffer outside the latch.
  std::string buffer;
  std::vector<uint64_t> frame_offsets;
  frame_offsets.reserve(records.size());
  std::string payload;
  for (const WalRecord* record : records) {
    payload.clear();
    record->EncodeTo(&payload);
    frame_offsets.push_back(buffer.size());
    PutFixed32(&buffer, static_cast<uint32_t>(payload.size()));
    PutFixed32(&buffer, Crc32c(payload.data(), payload.size()));
    buffer.append(payload);
  }
  auto frame_len = [&](size_t i) {
    return (i + 1 < frame_offsets.size() ? frame_offsets[i + 1]
                                         : buffer.size()) -
           frame_offsets[i];
  };

  std::lock_guard<SpinLatch> guard(latch_);
  NEOSI_RETURN_IF_ERROR(CheckPoisoned());
  const Lsn first = next_lsn_.load(std::memory_order_relaxed);
  {
    Status fault = fault_hooks.Check("wal.append.mid_frame");
    if (!fault.ok()) {
      // Simulated mid-append crash for the batched path: half the batch's
      // bytes land, the cursor never advances.
      Segment* active = active_.load(std::memory_order_relaxed);
      active->file->WriteAt(kSegmentHeaderSize + (first - active->base),
                            buffer.data(), buffer.size() / 2);
      return fault;
    }
  }
  // The lsn space is contiguous across segment rolls, so every record's lsn
  // is just first + its offset in the batch; only the physical writes split
  // at segment boundaries. Write maximal runs of frames that fit the
  // current segment with single writes.
  size_t idx = 0;
  bool rolled = false;
  Status write_status;
  while (idx < frame_offsets.size()) {
    const Lsn lsn = first + frame_offsets[idx];
    Segment* active = active_.load(std::memory_order_relaxed);
    uint64_t phys = kSegmentHeaderSize + (lsn - active->base);
    if (lsn > active->base &&
        phys + frame_len(idx) > options_.segment_size) {
      write_status = SyncRetiringLocked(active);
      if (write_status.ok()) write_status = AddSegmentLocked(lsn);
      if (!write_status.ok()) break;
      rolled = true;
      active = active_.load(std::memory_order_relaxed);
      phys = kSegmentHeaderSize;
    }
    if (rolled) {
      // Post-roll write-failure crash point: exercises the un-roll below.
      write_status = fault_hooks.Check("wal.append.fail_after_roll");
      if (!write_status.ok()) break;
    }
    size_t end = idx + 1;
    uint64_t run_bytes = frame_len(idx);
    while (end < frame_offsets.size() &&
           phys + run_bytes + frame_len(end) <= options_.segment_size) {
      run_bytes += frame_len(end);
      ++end;
    }
    write_status = active->file->WriteAt(
        phys, buffer.data() + frame_offsets[idx], run_bytes);
    if (!write_status.ok()) break;
    idx = end;
  }
  if (!write_status.ok()) {
    // A mid-batch failure after a roll would otherwise strand the cursor
    // below the fresh segment's base — drop every unpublished segment so
    // the next append lands back at the cursor, overwriting the partial
    // batch exactly like a failed single append always has.
    RollbackUnpublishedSegmentsLocked();
    return write_status;
  }
  for (uint64_t frame_offset : frame_offsets) {
    lsns->push_back(first + frame_offset);
  }
  if (pins != nullptr) {
    std::lock_guard<std::mutex> pin_guard(pins_mu_);
    for (size_t i = 0; i < lsns->size(); ++i) {
      if ((*pins)[i]) pins_.insert((*lsns)[i]);
    }
  }
  next_lsn_.store(first + buffer.size(), std::memory_order_release);
  return Status::OK();
}

Status Wal::Sync() {
  NEOSI_RETURN_IF_ERROR(CheckPoisoned());
  if (UseAsyncFlush()) {
    const Lsn target = next_lsn_.load(std::memory_order_acquire);
    NEOSI_RETURN_IF_ERROR(RequestFlush(target));
    return WaitFlushed(target);
  }
  return FlushOnce();
}

void Wal::SimulateSyncLoss(const std::shared_ptr<PagedFile>& file, Lsn base) {
  // After a failed fsync the kernel keeps the file's CLEAN pages (anything
  // a previous successful fsync covered) but drops the dirty ones — a later
  // fsync returning OK says nothing about them. Model that by truncating
  // everything beyond the flushed watermark; when no flush ever covered
  // this segment, even its header's durability is unknown (adoption writes
  // it buffered), so the whole file goes.
  const Lsn flushed = flushed_lsn_.load(std::memory_order_acquire);
  const uint64_t keep =
      flushed > base ? kSegmentHeaderSize + (flushed - base) : 0;
  if (file->Size() > keep) (void)file->Truncate(keep);
}

Status Wal::FlushOnce() {
  // Serialized: one syncer's fault-check → page-drop → poison-publish
  // sequence is atomic against a peer's fsync, so no fsync can observe a
  // healthy file, miss the poison flag, and report OK after a peer's EIO
  // already dropped pages (the satellite race: two inline Sync()s, one
  // injected).
  std::lock_guard<std::mutex> sync_guard(sync_mu_);
  NEOSI_RETURN_IF_ERROR(CheckPoisoned());
  // Cursor FIRST, file snapshot second: any frame below the cursor read
  // here is either in the file snapshotted next, or in an older segment a
  // roll already retiring-synced — so fsyncing the snapshot really does
  // make everything below `durable_upto` durable. (The reverse order could
  // advance the watermark past frames that went into a segment created
  // after the snapshot.)
  const Lsn durable_upto = next_lsn_.load(std::memory_order_acquire);
  // The shared handle keeps the file alive if a roll and a concurrent
  // TruncatePrefix retire this segment mid-sync (fsync of an unlinked file
  // is harmless).
  std::shared_ptr<PagedFile> file;
  Lsn base = 0;
  {
    std::lock_guard<std::mutex> guard(seg_mu_);
    if (segments_.empty()) {
      AdvanceFlushed(durable_upto);
      return Status::OK();
    }
    file = segments_.back()->file;
    base = segments_.back()->base;
  }
  Status fault = fault_hooks.Check("wal.sync.fail");
  if (!fault.ok()) {
    SimulateSyncLoss(file, base);
    Poison(fault);
    return fault;
  }
  Status s = file->Sync();
  if (!s.ok()) {
    Poison(s);
    return s;
  }
  // File BEFORE directory: once the deferred dir-sync lands, the adopted
  // segment's header is already durable, so a crash can never leave a
  // durable dir entry pointing at a headerless file that is not the newest.
  if (dir_sync_pending_.exchange(false, std::memory_order_acq_rel)) {
    Status d = fault_hooks.Check("wal.dirsync.rename");
    if (d.ok()) d = dir_->SyncDir();
    if (!d.ok()) {
      dir_sync_pending_.store(true, std::memory_order_release);
      Poison(d);
      return d;
    }
  }
  AdvanceFlushed(durable_upto);
  return Status::OK();
}

Status Wal::RequestFlush(Lsn target) {
  NEOSI_RETURN_IF_ERROR(CheckPoisoned());
  {
    std::lock_guard<std::mutex> guard(flush_mu_);
    if (target > flush_target_) flush_target_ = target;
  }
  flush_cv_.notify_all();
  return Status::OK();
}

Status Wal::WaitFlushed(Lsn target) {
  if (flushed_lsn_.load(std::memory_order_acquire) >= target) {
    return Status::OK();
  }
  std::unique_lock<std::mutex> lock(flush_mu_);
  for (;;) {
    // Watermark first: data that made it to disk stays acked even if the
    // log was poisoned a moment later.
    if (flushed_lsn_.load(std::memory_order_acquire) >= target) {
      return Status::OK();
    }
    if (poisoned_.load(std::memory_order_acquire)) {
      return PoisonedStatusLocked();
    }
    auto& ref = flush_waiters_[target];
    if (ref == nullptr) ref = std::make_shared<FlushWaiter>();
    std::shared_ptr<FlushWaiter> slot = ref;  // Pin across the erase.
    slot->cv.wait(lock);
  }
}

void Wal::AdvanceFlushed(Lsn upto) {
  std::vector<std::shared_ptr<FlushWaiter>> wake;
  {
    std::lock_guard<std::mutex> guard(flush_mu_);
    if (upto <= flushed_lsn_.load(std::memory_order_relaxed)) return;
    flushed_lsn_.store(upto, std::memory_order_release);
    const auto end = flush_waiters_.upper_bound(upto);
    for (auto it = flush_waiters_.begin(); it != end; ++it) {
      wake.push_back(it->second);
    }
    flush_waiters_.erase(flush_waiters_.begin(), end);
  }
  for (auto& waiter : wake) waiter->cv.notify_all();
}

void Wal::NudgeFlusherPrep() {
  if (!options_.preallocate ||
      !flusher_running_.load(std::memory_order_acquire)) {
    return;
  }
  {
    std::lock_guard<std::mutex> guard(flush_mu_);
    prep_nudge_ = true;
  }
  flush_cv_.notify_all();
}

void Wal::PrepareSegmentOffPath() {
  if (poisoned_.load(std::memory_order_acquire)) return;
  auto prep = std::make_unique<PreparedSegment>();
  {
    std::lock_guard<std::mutex> guard(seg_mu_);
    if (prepared_ != nullptr) return;
    if (!free_pool_.empty()) {
      prep->name = free_pool_.front();
      free_pool_.pop_front();
      prep->from_free_pool = true;
      // Counted as it leaves the pool, so recycled - reused stays the
      // pool's occupancy while the prepared segment waits for a roll.
      segments_reused_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!prep->from_free_pool) prep->name = PrepName(prep_seq_++);
  std::unique_ptr<PagedFile> file;
  Status s = dir_->Open(prep->name, &file);
  if (s.ok()) s = file->Truncate(0);
  if (s.ok()) s = file->Preallocate(options_.segment_size);
  if (!s.ok()) {
    // Allocation-class failure (ENOSPC and friends): abandon the prep —
    // the next roll falls back to the inline path, which may still succeed
    // with a plain sparse file. Not a durability statement, so no poison.
    file.reset();
    std::lock_guard<std::mutex> guard(seg_mu_);
    if (prep->from_free_pool) {
      free_pool_.push_front(prep->name);
      segments_reused_.fetch_sub(1, std::memory_order_relaxed);
    }
    return;
  }
  s = file->Sync();
  if (s.ok() && !prep->from_free_pool) {
    // Fresh file: make its dir entry durable off-path so adoption's only
    // directory work is the rename.
    s = fault_hooks.Check("wal.dirsync.create");
    if (s.ok()) s = dir_->SyncDir();
  }
  if (!s.ok()) {
    // An fsync/dir-sync failure in the WAL directory IS a durability
    // statement: fail sticky, same as on-path syncs.
    file.reset();
    (void)dir_->Remove(prep->name);
    Poison(s);
    return;
  }
  prep->file = std::move(file);
  std::lock_guard<std::mutex> guard(seg_mu_);
  prepared_ = std::move(prep);
}

void Wal::StartFlusher() {
  if (!(options_.async_flush || options_.preallocate)) return;
  if (flusher_.joinable()) return;
  {
    std::lock_guard<std::mutex> guard(flush_mu_);
    flusher_stop_ = false;
    prep_nudge_ = options_.preallocate;
  }
  flusher_ = std::thread([this] { FlusherMain(); });
  flusher_running_.store(true, std::memory_order_release);
}

void Wal::StopFlusher() {
  if (!flusher_.joinable()) return;
  flusher_running_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> guard(flush_mu_);
    flusher_stop_ = true;
  }
  flush_cv_.notify_all();
  flusher_.join();
}

void Wal::FlusherMain() {
  std::unique_lock<std::mutex> lock(flush_mu_);
  for (;;) {
    flush_cv_.wait(lock, [this] {
      if (flusher_stop_) return true;
      if (poisoned_.load(std::memory_order_relaxed)) return false;
      if (flush_target_ > flushed_lsn_.load(std::memory_order_relaxed)) {
        return true;
      }
      return options_.preallocate && prep_nudge_;
    });
    if (flusher_stop_) return;
    if (flush_target_ > flushed_lsn_.load(std::memory_order_relaxed)) {
      lock.unlock();
      // Failure poisons inside FlushOnce, which also fails every waiter —
      // nothing further to do here; the predicate goes quiet.
      (void)FlushOnce();
      lock.lock();
      continue;
    }
    if (prep_nudge_) {
      prep_nudge_ = false;
      lock.unlock();
      PrepareSegmentOffPath();
      lock.lock();
    }
  }
}

void Wal::Unpin(Lsn lsn) {
  std::lock_guard<std::mutex> guard(pins_mu_);
  pins_.erase(lsn);
}

Lsn Wal::StableLsn() const {
  // Cursor FIRST, pins second: a pin is registered before the cursor
  // advances past its record, so any record visible below `cursor` is
  // either pinned here or already safely applied.
  const Lsn cursor = next_lsn_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> guard(pins_mu_);
  if (pins_.empty()) return cursor;
  return std::min(cursor, *pins_.begin());
}

size_t Wal::PinnedCount() const {
  std::lock_guard<std::mutex> guard(pins_mu_);
  return pins_.size();
}

Status Wal::RetireSegmentFile(const std::string& name, uint64_t index) {
  // Retirements are serialized (trunc_mu_), but appender rolls pop the pool
  // concurrently — the free name must not be published until the rename has
  // actually executed, or a roll could Open (create!) the not-yet-existing
  // free file and then have the rename clobber it, stranding the roll's
  // frames in an orphaned inode. Capacity can only shrink between the check
  // and the push (rolls pop), so checking first never overfills the pool.
  bool recycle = false;
  {
    std::lock_guard<std::mutex> guard(seg_mu_);
    recycle = free_pool_.size() < options_.recycle_segments;
  }
  if (recycle) {
    const std::string free_name = FreeName(index);
    NEOSI_RETURN_IF_ERROR(dir_->Rename(name, free_name));
    {
      std::lock_guard<std::mutex> guard(seg_mu_);
      free_pool_.push_back(free_name);
    }
    segments_recycled_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  NEOSI_RETURN_IF_ERROR(dir_->Remove(name));
  segments_deleted_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Wal::TruncatePrefix(Lsn lsn) {
  std::lock_guard<std::mutex> guard(trunc_mu_);
  NEOSI_RETURN_IF_ERROR(CheckPoisoned());
  const Lsn head = head_lsn_.load(std::memory_order_acquire);
  const Lsn next = next_lsn_.load(std::memory_order_acquire);
  if (lsn <= head) return Status::OK();  // Nothing below to drop.
  if (lsn > next) {
    return Status::InvalidArgument("wal truncate beyond append cursor");
  }

  // Every segment wholly below the new head is retired; the logical head
  // advances only once they are gone, so SizeBytes() (= next - head) never
  // under-reports while multi-segment unlinks (with their directory syncs)
  // are still in flight. The head is in-memory only — recovery re-derives
  // it from the oldest retained segment and the checkpoint markers — so
  // this ordering has no crash-consistency implications. The active segment
  // is never retired: it anchors lsn monotonicity and keeps appends
  // untouched, making reclamation a pure unlink/rename of cold files —
  // unconditional on every backend, no hole punching, no quiescent rebase.
  NEOSI_RETURN_IF_ERROR(fault_hooks.Check("wal.truncate.pre_unlink"));

  for (;;) {
    std::string victim;
    uint64_t index = 0;
    {
      std::lock_guard<std::mutex> seg_guard(seg_mu_);
      // A segment's frames end where its successor begins; it is dead iff
      // that end is at or below the new head. keep_segments retains that
      // many extra dead segments for lagging replicas (wal_keep_segments).
      if (segments_.size() <= 1 + options_.keep_segments ||
          segments_[1]->base > lsn) {
        break;
      }
      index = segments_.front()->index;
      victim = SegmentName(index);
      segments_.pop_front();
      segment_count_.store(segments_.size(), std::memory_order_release);
    }
    NEOSI_RETURN_IF_ERROR(RetireSegmentFile(victim, index));
    // Directory-sync EACH retirement before the next: POSIX gives no
    // ordering between unlinks, and a crash that persisted the second
    // unlink but not the first would leave an index gap Open() rightly
    // refuses to accept. Front-to-back with a sync per step, the survivors
    // are always a contiguous chain suffix.
    Status d = fault_hooks.Check("wal.dirsync.unlink");
    if (d.ok()) d = dir_->SyncDir();
    if (!d.ok()) {
      Poison(d);
      return d;
    }
  }
  head_lsn_.store(lsn, std::memory_order_release);
  return Status::OK();
}

Result<Lsn> GroupCommitter::Finish(const Request& req) {
  if (!req.status.ok()) return req.status;
  if (req.flush_target != 0) {
    // Async hand-off: the leader only REQUESTED the flush — the ack waits
    // out the watermark here, on the requester's own thread, while the
    // next batch is already forming.
    Status flushed = wal_->WaitFlushed(req.flush_target);
    if (!flushed.ok()) {
      // Same contract as the inline failure path below: the caller rolls
      // back a commit that "didn't happen", so its pin must not freeze
      // StableLsn() forever.
      if (req.pin) wal_->Unpin(req.lsn);
      return flushed;
    }
  }
  return req.lsn;
}

Result<Lsn> GroupCommitter::Commit(const WalRecord& record, bool sync,
                                   bool pin) {
  NEOSI_RETURN_IF_ERROR(wal_->CheckPoisoned());
  if (!sync) {
    // Nothing to amortize without an fsync; a plain latched append is
    // cheaper than parking behind a leader that may be mid-fsync.
    records_.fetch_add(1, std::memory_order_relaxed);
    return wal_->Append(record, pin);
  }
  Request req;
  req.record = &record;
  req.sync = sync;
  req.pin = pin;
  std::unique_lock<std::mutex> lock(mu_);
  queue_.push_back(&req);
  // Wait until a leader has handled us, or until the leader seat is free and
  // our request is still queued (then we take the seat ourselves).
  while (!req.done && leader_active_) cv_.wait(lock);
  if (req.done) return Finish(req);

  leader_active_ = true;
  // Fold at most max_batch queued requests into this write; the remainder
  // elects the next leader as soon as the seat frees (which, in async-flush
  // mode, is before this batch's fsync even completes).
  size_t take = queue_.size();
  const size_t cap = wal_->options_.group_commit_max_batch;
  if (cap != 0 && cap < take) take = cap;
  std::vector<Request*> batch(queue_.begin(),
                              queue_.begin() + static_cast<long>(take));
  queue_.erase(queue_.begin(), queue_.begin() + static_cast<long>(take));
  lock.unlock();

  std::vector<const WalRecord*> records;
  std::vector<bool> pins;
  records.reserve(batch.size());
  pins.reserve(batch.size());
  bool want_sync = false;
  for (Request* r : batch) {
    records.push_back(r->record);
    pins.push_back(r->pin);
    want_sync |= r->sync;
  }
  std::vector<Lsn> lsns;
  Status write_status = wal_->AppendBatch(records, &lsns, &pins);
  const bool async = wal_->UseAsyncFlush();
  Status sync_status;
  Lsn flush_target = 0;
  if (write_status.ok() && want_sync) {
    if (async) {
      // Hand the fsync to the flusher and release the leader seat: the
      // batch's acks wait on the watermark in Finish(), off this thread.
      flush_target = wal_->NextLsn();
      sync_status = wal_->RequestFlush(flush_target);
    } else {
      sync_status = wal_->Sync();
    }
  }

  if (batch.size() > 1) batches_.fetch_add(1, std::memory_order_relaxed);
  records_.fetch_add(batch.size(), std::memory_order_relaxed);

  lock.lock();
  for (size_t i = 0; i < batch.size(); ++i) {
    Request* r = batch[i];
    if (!write_status.ok()) {
      r->status = write_status;
    } else {
      r->lsn = lsns[i];
      if (r->sync && !sync_status.ok()) {
        r->status = sync_status;
        // The caller sees a failed commit and rolls back — release its pin
        // here or StableLsn() would be frozen at this lsn forever (the
        // caller never learns the lsn of a commit that "didn't happen").
        if (r->pin) wal_->Unpin(lsns[i]);
      } else if (r->sync && flush_target != 0) {
        r->flush_target = flush_target;
      }
    }
    r->done = true;
  }
  leader_active_ = false;
  lock.unlock();
  cv_.notify_all();

  return Finish(req);
}

Status Wal::ReadFrom(Lsn from,
                     const std::function<Status(Lsn, const WalRecord&)>& fn) {
  const Lsn head = head_lsn_.load(std::memory_order_acquire);
  const Lsn next = next_lsn_.load(std::memory_order_acquire);
  // `from` must be a frame boundary (the head itself, a marker's stable
  // LSN, or the append cursor) — the scan seeks straight to it inside its
  // segment, and segments wholly below it are skipped without any read or
  // CRC work at all.
  if (from < head) from = head;
  if (from > next) from = next;

  // Snapshot the chain. ReadFrom must not race TruncatePrefix (it runs
  // during single-threaded recovery and in tests).
  std::vector<Segment*> segs;
  {
    std::lock_guard<std::mutex> guard(seg_mu_);
    segs.reserve(segments_.size());
    for (const auto& segment : segments_) segs.push_back(segment.get());
  }

  for (size_t i = 0; i < segs.size(); ++i) {
    Segment* seg = segs[i];
    const bool newest = i + 1 == segs.size();
    if (!newest && segs[i + 1]->base <= from) continue;  // Wholly below.

    const uint64_t size = seg->file->Size();
    const Lsn start = std::max(from, seg->base);
    auto walked = WalkFrames(
        seg->file.get(), kSegmentHeaderSize + (start - seg->base), size,
        [&](uint64_t offset, const Slice& payload) {
          const Lsn lsn = seg->base + (offset - kSegmentHeaderSize);
          WalRecord record;
          NEOSI_RETURN_IF_ERROR(WalRecord::DecodeFrom(payload, &record));
          return fn(lsn, record);
        });
    if (!walked.ok()) return walked.status();
    const uint64_t offset = *walked;

    const Lsn end = seg->base + (offset - kSegmentHeaderSize);
    if (!newest) {
      // Older segments were synced before the chain rolled past them, so
      // their frames must walk exactly up to the successor's base — a short
      // or invalid walk here is real corruption, not a torn tail, and
      // silently truncating it would drop durably-acked commits.
      if (end != segs[i + 1]->base) {
        return Status::Corruption(
            "wal segment " + SegmentName(seg->index) +
            ": frame walk ends before the next segment's base");
      }
    } else {
      // Torn tail in the newest segment: drop it so subsequent appends
      // extend a clean log.
      if (offset < size) {
        NEOSI_RETURN_IF_ERROR(seg->file->Truncate(offset));
      }
      std::lock_guard<SpinLatch> guard(latch_);
      next_lsn_.store(end, std::memory_order_release);
      // The shave may land below where Open() pegged the flushed
      // watermark; a watermark above the cursor would let a later commit
      // ack without any fsync at all.
      if (flushed_lsn_.load(std::memory_order_relaxed) > end) {
        flushed_lsn_.store(end, std::memory_order_release);
      }
    }
  }
  return Status::OK();
}

Status Wal::ReadAll(const std::function<Status(const WalRecord&)>& fn) {
  return ReadFrom(head_lsn_.load(std::memory_order_acquire),
                  [&fn](Lsn, const WalRecord& record) { return fn(record); });
}

uint64_t Wal::PhysicalBytes() const {
  std::lock_guard<std::mutex> guard(seg_mu_);
  uint64_t total = 0;
  for (const auto& segment : segments_) total += segment->file->Size();
  return total;
}

const Wal::Segment* Wal::SegmentAtLocked(Lsn lsn) const {
  const Segment* best = nullptr;
  for (const auto& segment : segments_) {
    if (segment->base <= lsn) best = segment.get();
  }
  return best != nullptr ? best
                         : (segments_.empty() ? nullptr
                                              : segments_.front().get());
}

uint64_t Wal::PhysOf(Lsn lsn) const {
  std::lock_guard<std::mutex> guard(seg_mu_);
  const Segment* segment = SegmentAtLocked(lsn);
  if (segment == nullptr) return kSegmentHeaderSize;
  return kSegmentHeaderSize + (lsn - segment->base);
}

std::string Wal::SegmentNameOf(Lsn lsn) const {
  std::lock_guard<std::mutex> guard(seg_mu_);
  const Segment* segment = SegmentAtLocked(lsn);
  return segment == nullptr ? std::string() : SegmentName(segment->index);
}

}  // namespace neosi
