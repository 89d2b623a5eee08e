// File-set abstraction backing the segmented WAL.
//
// The rotating WAL is not one file but a small, changing set of files in one
// directory (active segments and a recycle pool of retired segments).
// WalDir is the minimal directory surface the Wal needs: list,
// open-or-create, remove, atomic rename, and a directory-metadata sync for
// crash-ordering the create/rename/unlink transitions.
//
// Two implementations mirror PagedFile's: a POSIX directory for the
// durability and recovery paths, and an in-memory directory whose files
// SURVIVE the Wal object that opened them — tests hold the directory across
// "kill the process, reopen" cycles to simulate crashes without touching
// disk.

#ifndef NEOSI_STORAGE_WAL_DIR_H_
#define NEOSI_STORAGE_WAL_DIR_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/paged_file.h"

namespace neosi {

/// Flat directory of named byte files. Thread-safety: List/Open/Exists may
/// race each other; Remove/Rename of one name are serialized by the caller
/// (the Wal's truncation mutex).
class WalDir {
 public:
  virtual ~WalDir() = default;

  /// Names of every file in the directory (no ordering guarantee).
  virtual Status List(std::vector<std::string>* names) const = 0;

  /// Opens `name`, creating it empty if absent.
  virtual Status Open(const std::string& name,
                      std::unique_ptr<PagedFile>* out) = 0;

  /// Opens `name` only if it already exists; NotFound otherwise. The
  /// replica tailer reads a primary's directory exclusively through this so
  /// a lost race against segment retirement can never create a stray file
  /// in the primary's WAL directory.
  virtual Status OpenExisting(const std::string& name,
                              std::unique_ptr<PagedFile>* out) = 0;

  virtual bool Exists(const std::string& name) const = 0;

  /// Unlinks `name`. Open handles keep working until closed (POSIX
  /// semantics); the in-memory backend mirrors that via shared buffers.
  virtual Status Remove(const std::string& name) = 0;

  /// Atomically renames `from` to `to`, replacing any existing `to`.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  /// Persists directory metadata (creates/renames/unlinks) to stable
  /// storage. No-op for the in-memory backend.
  virtual Status SyncDir() = 0;
};

/// POSIX directory; files are PosixFiles inside `path` (which must exist).
class PosixWalDir final : public WalDir {
 public:
  explicit PosixWalDir(std::string path) : path_(std::move(path)) {}

  Status List(std::vector<std::string>* names) const override;
  Status Open(const std::string& name,
              std::unique_ptr<PagedFile>* out) override;
  Status OpenExisting(const std::string& name,
                      std::unique_ptr<PagedFile>* out) override;
  bool Exists(const std::string& name) const override;
  Status Remove(const std::string& name) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status SyncDir() override;

 private:
  std::string path_;
};

/// Heap directory. The buffers live as long as the directory object, so a
/// Wal reopened over the same InMemoryWalDir sees everything a previous Wal
/// wrote — the crash-simulation hook the WAL tests are built on.
class InMemoryWalDir final : public WalDir {
 public:
  Status List(std::vector<std::string>* names) const override;
  Status Open(const std::string& name,
              std::unique_ptr<PagedFile>* out) override;
  Status OpenExisting(const std::string& name,
                      std::unique_ptr<PagedFile>* out) override;
  bool Exists(const std::string& name) const override;
  Status Remove(const std::string& name) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status SyncDir() override { return Status::OK(); }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<InMemoryFile>> files_;
};

}  // namespace neosi

#endif  // NEOSI_STORAGE_WAL_DIR_H_
