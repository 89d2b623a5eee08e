// Interned token registries for labels, property keys and relationship
// types.
//
// Neo4j never deletes tokens; the paper (§4) therefore VERSIONS them: each
// token records the commit timestamp of the transaction that created it, and
// a reader whose snapshot predates the token simply discards it. GetOrCreate
// is what writers use; visibility-filtered lookup is what readers use.

#ifndef NEOSI_STORAGE_TOKEN_STORE_H_
#define NEOSI_STORAGE_TOKEN_STORE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/latch.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/record_store.h"

namespace neosi {

/// One token: interned name + creation timestamp (paper §4 token versioning).
struct Token {
  uint32_t id = kInvalidToken;
  std::string name;
  Timestamp created_ts = kNoTimestamp;
};

/// Thread-safe persistent token registry; tokens are never deleted. The
/// primary allocates ids densely. A replayed copy may hold holes where an id
/// went to a transaction that never committed, and a recovered primary may
/// hand such a hole to a new token.
class TokenStore {
 public:
  TokenStore(std::unique_ptr<PagedFile> file, std::string name);

  /// Loads existing tokens into the in-memory maps.
  Status Open();

  /// Returns the id for `name`, creating the token with `created_ts` if it
  /// does not exist yet. Creation is immediately persisted (tokens are not
  /// transactional in Neo4j and are never rolled back).
  Result<uint32_t> GetOrCreate(const std::string& name, Timestamp created_ts);

  /// WAL replay: writes token `name` at the logged `id`, leaving any lower
  /// unused ids as holes (a replica or a recovered copy must resolve every
  /// logged id exactly as the primary did, whatever the commit order). A
  /// no-op when `name` already holds `id`; Corruption when a different name
  /// holds `id` or `name` holds a different id.
  Status CreateAt(uint64_t id, const std::string& name, Timestamp created_ts);

  /// Id lookup with snapshot visibility: NotFound if the token is absent OR
  /// was created after `snapshot_ts` (the reader must discard it, §4).
  Result<uint32_t> Lookup(const std::string& name,
                          Timestamp snapshot_ts = kMaxTimestamp) const;

  /// Name of an existing token id.
  Result<std::string> NameOf(uint32_t id) const;

  /// Creation timestamp of an existing token id.
  Result<Timestamp> CreatedTs(uint32_t id) const;

  /// True if token `id` exists and was created at or before `snapshot_ts`.
  bool VisibleAt(uint32_t id, Timestamp snapshot_ts) const;

  /// All tokens visible at `snapshot_ts`, in id order.
  std::vector<Token> VisibleTokens(Timestamp snapshot_ts) const;

  size_t size() const;
  Status Sync() { return store_.Sync(); }
  Result<bool> SyncIfDirty() { return store_.SyncIfDirty(); }

 private:
  /// Persists `name` at `id` and indexes it. Caller holds latch_ for write.
  Status WriteTokenLocked(uint64_t id, const std::string& name,
                          Timestamp created_ts);

  RecordStore store_;
  mutable SharedLatch latch_;
  std::unordered_map<std::string, uint32_t> by_name_;
  std::vector<Token> by_id_;
};

}  // namespace neosi

#endif  // NEOSI_STORAGE_TOKEN_STORE_H_
