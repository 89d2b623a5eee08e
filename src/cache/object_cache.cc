#include "cache/object_cache.h"

#include <algorithm>

namespace neosi {

ObjectCache::ObjectCache(GraphStore* store, size_t capacity,
                         EpochManager& epochs)
    : store_(store),
      capacity_(capacity == 0 ? SIZE_MAX : capacity),
      epochs_(epochs) {}

Result<std::shared_ptr<CachedNode>> ObjectCache::GetNode(NodeId id) {
  Shard& shard = ShardFor(id);
  {
    ReadGuard guard(shard.latch);
    auto it = shard.nodes.find(id);
    if (it != shard.nodes.end()) {
      node_hits_.fetch_add(1, std::memory_order_relaxed);
      it->second->chain.MarkReferenced();
      return it->second;
    }
  }
  // Miss: load the newest committed version from the store.
  Victims victims;  // Declared first: freed after the latch.
  WriteGuard guard(shard.latch);
  auto it = shard.nodes.find(id);
  if (it != shard.nodes.end()) return it->second;  // Raced another loader.

  NodeState state;
  Status s = store_->ReadNodeState(id, &state);
  if (s.IsOutOfRange() || (s.ok() && !state.in_use)) {
    node_misses_.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound("node " + std::to_string(id) + " does not exist");
  }
  NEOSI_RETURN_IF_ERROR(s);

  auto node = std::make_shared<CachedNode>(id, epochs_);
  VersionData data;
  data.deleted = state.deleted;
  data.labels = std::move(state.labels);
  data.props = std::move(state.props);
  auto installed = node->chain.InstallUncommitted(kNoTxn, std::move(data));
  if (!installed.ok()) return installed.status();
  // Stamp directly with the persisted commit timestamp.
  auto superseded = node->chain.CommitHead(kNoTxn, state.commit_ts);
  if (!superseded.ok()) return superseded.status();

  shard.nodes.emplace(id, node);
  AddResident(shard, victims);
  node_misses_.fetch_add(1, std::memory_order_relaxed);
  loads_.fetch_add(1, std::memory_order_relaxed);
  return node;
}

Result<std::shared_ptr<CachedRel>> ObjectCache::GetRel(RelId id) {
  Shard& shard = ShardFor(id);
  {
    ReadGuard guard(shard.latch);
    auto it = shard.rels.find(id);
    if (it != shard.rels.end()) {
      rel_hits_.fetch_add(1, std::memory_order_relaxed);
      it->second->chain.MarkReferenced();
      return it->second;
    }
  }
  Victims victims;
  WriteGuard guard(shard.latch);
  auto it = shard.rels.find(id);
  if (it != shard.rels.end()) return it->second;

  RelState state;
  Status s = store_->ReadRelState(id, &state);
  if (s.IsOutOfRange() || (s.ok() && !state.in_use)) {
    rel_misses_.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound("relationship " + std::to_string(id) +
                            " does not exist");
  }
  NEOSI_RETURN_IF_ERROR(s);

  auto rel = std::make_shared<CachedRel>(id, state.src, state.dst, state.type,
                                         epochs_);
  VersionData data;
  data.deleted = state.deleted;
  data.props = std::move(state.props);
  auto installed = rel->chain.InstallUncommitted(kNoTxn, std::move(data));
  if (!installed.ok()) return installed.status();
  auto superseded = rel->chain.CommitHead(kNoTxn, state.commit_ts);
  if (!superseded.ok()) return superseded.status();

  shard.rels.emplace(id, rel);
  AddResident(shard, victims);
  rel_misses_.fetch_add(1, std::memory_order_relaxed);
  loads_.fetch_add(1, std::memory_order_relaxed);
  return rel;
}

namespace {

/// True when a cache entry left behind for a purged-and-recycled id can be
/// replaced: its chain is empty or its latest committed version is a
/// tombstone with no writer in flight. (A reader racing the purge may have
/// reloaded the tombstone record into the cache between the cache erase and
/// the record free; such entries are invisible to every snapshot.)
bool IsDefunct(const VersionChain& chain) {
  if (chain.HasUncommitted()) return false;
  auto latest = chain.LatestCommitted();
  return latest == nullptr || latest->data.deleted;
}

}  // namespace

Result<std::shared_ptr<CachedNode>> ObjectCache::InsertNewNode(NodeId id) {
  Shard& shard = ShardFor(id);
  Victims victims;
  WriteGuard guard(shard.latch);
  auto [it, inserted] = shard.nodes.emplace(id, nullptr);
  if (!inserted && !IsDefunct(it->second->chain)) {
    return Status::Internal("InsertNewNode: live node already cached: " +
                            std::to_string(id));
  }
  // Replacing a stale entry for the previous (purged) occupant of this
  // record id leaves the resident count as it was.
  auto node = std::make_shared<CachedNode>(id, epochs_);
  it->second = node;
  if (inserted) AddResident(shard, victims);
  return node;
}

Result<std::shared_ptr<CachedRel>> ObjectCache::InsertNewRel(RelId id,
                                                             NodeId src,
                                                             NodeId dst,
                                                             RelTypeId type) {
  Shard& shard = ShardFor(id);
  Victims victims;
  WriteGuard guard(shard.latch);
  auto [it, inserted] = shard.rels.emplace(id, nullptr);
  if (!inserted && !IsDefunct(it->second->chain)) {
    return Status::Internal("InsertNewRel: live relationship already cached: " +
                            std::to_string(id));
  }
  auto rel = std::make_shared<CachedRel>(id, src, dst, type, epochs_);
  it->second = rel;
  if (inserted) AddResident(shard, victims);
  return rel;
}

std::shared_ptr<CachedNode> ObjectCache::PeekNode(NodeId id) const {
  Shard& shard = ShardFor(id);
  ReadGuard guard(shard.latch);
  auto it = shard.nodes.find(id);
  return it == shard.nodes.end() ? nullptr : it->second;
}

std::shared_ptr<CachedRel> ObjectCache::PeekRel(RelId id) const {
  Shard& shard = ShardFor(id);
  ReadGuard guard(shard.latch);
  auto it = shard.rels.find(id);
  return it == shard.rels.end() ? nullptr : it->second;
}

void ObjectCache::EraseNode(NodeId id) {
  Shard& shard = ShardFor(id);
  WriteGuard guard(shard.latch);
  if (shard.nodes.erase(id) != 0) {
    resident_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ObjectCache::EraseRel(RelId id) {
  Shard& shard = ShardFor(id);
  WriteGuard guard(shard.latch);
  if (shard.rels.erase(id) != 0) {
    resident_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ObjectCache::AddResident(Shard& shard, Victims& victims) {
  const size_t resident = resident_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (resident <= capacity_) return;
  const size_t want = std::min(resident - capacity_, kMaxEvictions);
  size_t found = 0;
  size_t steps = 0;
  // Sweeps one bucket; takes at most one victim, since erasing it
  // invalidates the bucket iterator.
  auto sweep = [&](auto& map, size_t bucket) {
    for (auto it = map.begin(bucket); it != map.end(bucket); ++it, ++steps) {
      const auto& entry = it->second;
      // Second chance: a referenced entry survives this pass of the hand.
      if (entry->chain.ClearReferenced()) continue;
      // use_count() is exact here: copies of the map's reference are made
      // under this shard's latch, which we hold for write, so a count of
      // one means no reader or writer holds the object and none can start.
      if (entry.use_count() != 1 || !entry->chain.IsSingleCommitted()) {
        continue;
      }
      const uint64_t id = entry->id;
      victims[found++] = entry;
      map.erase(id);
      return;
    }
  };
  const size_t node_buckets = shard.nodes.bucket_count();
  for (; steps < kMaxClockSteps && found < want; ++steps) {
    const size_t bucket =
        shard.hand++ % (node_buckets + shard.rels.bucket_count());
    if (bucket < node_buckets) {
      sweep(shard.nodes, bucket);
    } else {
      sweep(shard.rels, bucket - node_buckets);
    }
  }
  resident_.fetch_sub(found, std::memory_order_relaxed);
  evictions_.fetch_add(found, std::memory_order_relaxed);
}

void ObjectCache::ForEachNode(
    const std::function<void(const std::shared_ptr<CachedNode>&)>& fn) const {
  for (const auto& shard : shards_) {
    std::vector<std::shared_ptr<CachedNode>> snapshot;
    {
      ReadGuard guard(shard.latch);
      snapshot.reserve(shard.nodes.size());
      for (const auto& [id, node] : shard.nodes) snapshot.push_back(node);
    }
    for (const auto& node : snapshot) fn(node);
  }
}

void ObjectCache::ForEachRel(
    const std::function<void(const std::shared_ptr<CachedRel>&)>& fn) const {
  for (const auto& shard : shards_) {
    std::vector<std::shared_ptr<CachedRel>> snapshot;
    {
      ReadGuard guard(shard.latch);
      snapshot.reserve(shard.rels.size());
      for (const auto& [id, rel] : shard.rels) snapshot.push_back(rel);
    }
    for (const auto& rel : snapshot) fn(rel);
  }
}

ObjectCacheStats ObjectCache::Stats() const {
  ObjectCacheStats out;
  out.node_hits = node_hits_.load(std::memory_order_relaxed);
  out.node_misses = node_misses_.load(std::memory_order_relaxed);
  out.rel_hits = rel_hits_.load(std::memory_order_relaxed);
  out.rel_misses = rel_misses_.load(std::memory_order_relaxed);
  out.loads = loads_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  // Footprint walks go through the chain (its own latch): a raw
  // head/older walk here would race GC unlinks.
  ForEachNode([&](const std::shared_ptr<CachedNode>& node) {
    ++out.resident_nodes;
    out.resident_versions += node->chain.Length();
    out.approx_bytes += node->chain.ApproximateBytes();
  });
  ForEachRel([&](const std::shared_ptr<CachedRel>& rel) {
    ++out.resident_rels;
    out.resident_versions += rel->chain.Length();
    out.approx_bytes += rel->chain.ApproximateBytes();
  });
  return out;
}

}  // namespace neosi
