// Byte-addressable file abstraction backing the record stores and the WAL.
//
// Two implementations: an anonymous in-memory buffer (default; experiments
// measure concurrency control, not disks) and a POSIX pread/pwrite file used
// by the durability / recovery tests and the persistence benches.

#ifndef NEOSI_STORAGE_PAGED_FILE_H_
#define NEOSI_STORAGE_PAGED_FILE_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/latch.h"
#include "common/status.h"

namespace neosi {

/// Random-access byte file. Implementations must support concurrent reads
/// and serialized writes (callers coordinate writer exclusion per region).
class PagedFile {
 public:
  virtual ~PagedFile() = default;

  /// Reads exactly n bytes at offset into buf; OutOfRange on short read.
  virtual Status ReadAt(uint64_t offset, size_t n, char* buf) const = 0;
  /// Writes n bytes at offset, extending the file as needed.
  virtual Status WriteAt(uint64_t offset, const char* data, size_t n) = 0;
  /// Shrinks or grows the file to exactly `size` bytes.
  virtual Status Truncate(uint64_t size) = 0;
  /// Current size in bytes.
  virtual uint64_t Size() const = 0;
  /// Flushes to stable storage (no-op for the in-memory backend).
  virtual Status Sync() = 0;

  /// Reserves physical storage for the first `size` bytes WITHOUT changing
  /// the file size (fallocate KEEP_SIZE where supported), so later writes
  /// into the range cannot fail with ENOSPC and extend cheaply. Advisory:
  /// backends without allocation support return OK and do nothing. The WAL
  /// flusher uses this to build the next segment off the append path.
  virtual Status Preallocate(uint64_t size) {
    (void)size;
    return Status::OK();
  }

  /// Releases the physical storage backing [offset, offset+n) without
  /// changing the file size; the range reads back as zeros where supported.
  /// Advisory: backends without hole support return OK and do nothing.
  /// No longer used by the WAL (segment rotation reclaims by unlinking
  /// whole files); retained as a general backend capability — sparse store
  /// files are a natural future user.
  virtual Status PunchHole(uint64_t offset, uint64_t n) {
    (void)offset;
    (void)n;
    return Status::OK();
  }

  /// True when writes have landed since the last SyncIfDirty() (or since
  /// open). Fuzzy checkpoints use this to sync only stores that changed.
  bool dirty() const { return dirty_.load(std::memory_order_acquire); }

  /// Sync() iff the file is dirty; returns whether a sync ran. The flag is
  /// cleared BEFORE the sync, so a write racing the fsync re-dirties the
  /// file for the next checkpoint instead of being silently treated as
  /// persisted.
  Result<bool> SyncIfDirty() {
    if (!dirty_.exchange(false, std::memory_order_acq_rel)) {
      return false;
    }
    Status s = Sync();
    if (!s.ok()) {
      dirty_.store(true, std::memory_order_release);
      return s;
    }
    return true;
  }

 protected:
  /// Implementations call this AFTER a mutation completes, so that a
  /// cleared dirty flag implies every completed write is fsync-covered.
  void MarkDirty() { dirty_.store(true, std::memory_order_release); }

 private:
  std::atomic<bool> dirty_{false};
};

/// Heap-backed file; contents are lost when the object dies.
class InMemoryFile final : public PagedFile {
 public:
  Status ReadAt(uint64_t offset, size_t n, char* buf) const override;
  Status WriteAt(uint64_t offset, const char* data, size_t n) override;
  Status Truncate(uint64_t size) override;
  uint64_t Size() const override;
  Status Sync() override { return Status::OK(); }
  /// Zeroes the range (mirrors the hole-read-as-zeros contract; memory is
  /// not actually released).
  Status PunchHole(uint64_t offset, uint64_t n) override;

 private:
  mutable SharedLatch latch_;
  std::string buf_;
};

/// POSIX file using pread/pwrite; created if absent.
class PosixFile final : public PagedFile {
 public:
  ~PosixFile() override;

  /// Opens (creating if needed) the file at path.
  static Status Open(const std::string& path, std::unique_ptr<PagedFile>* out);

  /// Opens the file at path WITHOUT creating it; NotFound if absent.
  /// Replica tailers use this so racing a primary's segment retirement can
  /// never plant an empty file in the primary's directory.
  static Status OpenExisting(const std::string& path,
                             std::unique_ptr<PagedFile>* out);

  Status ReadAt(uint64_t offset, size_t n, char* buf) const override;
  Status WriteAt(uint64_t offset, const char* data, size_t n) override;
  Status Truncate(uint64_t size) override;
  uint64_t Size() const override;
  Status Sync() override;
  /// fallocate(KEEP_SIZE) / posix_fallocate where supported; silently a
  /// no-op on filesystems without allocation support.
  Status Preallocate(uint64_t size) override;
  /// fallocate(PUNCH_HOLE) where the platform/filesystem supports it;
  /// silently a no-op otherwise.
  Status PunchHole(uint64_t offset, uint64_t n) override;

 private:
  explicit PosixFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  int fd_;
  std::string path_;
};

/// Opens an in-memory file when in_memory is true, otherwise a POSIX file at
/// `path` (parent directory must exist).
Status OpenPagedFile(const std::string& path, bool in_memory,
                     std::unique_ptr<PagedFile>* out);

}  // namespace neosi

#endif  // NEOSI_STORAGE_PAGED_FILE_H_
