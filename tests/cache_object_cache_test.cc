// ObjectCache: load-on-miss materialization, CLOCK eviction on the insert
// path (capacity, pinning, second chance, held objects), stats.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "cache/object_cache.h"
#include "graph/graph_database.h"
#include "mvcc/epoch.h"

namespace neosi {
namespace {

std::unique_ptr<GraphStore> MakeStore() {
  DatabaseOptions options;
  options.in_memory = true;
  auto store = std::make_unique<GraphStore>(options);
  EXPECT_TRUE(store->Open().ok());
  return store;
}

TEST(ObjectCache, LoadsNewestCommittedVersionOnMiss) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), 0, epochs);
  const NodeId id = *store->AllocateNodeId();
  ASSERT_TRUE(
      store->PersistNewNode(id, {1}, {{2, PropertyValue("v")}}, 77).ok());

  auto node = cache.GetNode(id);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ((*node)->chain.Length(), 1u);
  auto version = (*node)->chain.LatestCommitted();
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->commit_ts, 77u);
  EXPECT_EQ(version->data.labels, (std::vector<LabelId>{1}));
  EXPECT_EQ(version->data.props.at(2), PropertyValue("v"));

  ObjectCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.node_misses, 1u);
  EXPECT_EQ(stats.loads, 1u);
  // Second access is a hit.
  ASSERT_TRUE(cache.GetNode(id).ok());
  EXPECT_EQ(cache.Stats().node_hits, 1u);
}

TEST(ObjectCache, MissOnFreeRecordIsNotFound) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), 0, epochs);
  EXPECT_TRUE(cache.GetNode(42).status().IsNotFound());
  const NodeId id = *store->AllocateNodeId();  // Allocated but zeroed.
  EXPECT_TRUE(cache.GetNode(id).status().IsNotFound());
}

TEST(ObjectCache, LoadsTombstoneAsDeletedVersion) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), 0, epochs);
  const NodeId id = *store->AllocateNodeId();
  ASSERT_TRUE(store->PersistNewNode(id, {}, {}, 5).ok());
  ASSERT_TRUE(store->PersistNodeTombstone(id, 9).ok());
  auto node = cache.GetNode(id);
  ASSERT_TRUE(node.ok());
  auto version = (*node)->chain.LatestCommitted();
  EXPECT_TRUE(version->data.deleted);
  EXPECT_EQ(version->commit_ts, 9u);
}

TEST(ObjectCache, RelTopologyOnCachedObject) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), 0, epochs);
  const NodeId a = *store->AllocateNodeId();
  const NodeId b = *store->AllocateNodeId();
  ASSERT_TRUE(store->PersistNewNode(a, {}, {}, 1).ok());
  ASSERT_TRUE(store->PersistNewNode(b, {}, {}, 1).ok());
  const RelId r = *store->AllocateRelId();
  ASSERT_TRUE(
      store->PersistNewRel(r, a, b, 3, {{1, PropertyValue(2.5)}}, 2).ok());
  auto rel = cache.GetRel(r);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->src, a);
  EXPECT_EQ((*rel)->dst, b);
  EXPECT_EQ((*rel)->type, 3u);
  EXPECT_EQ((*rel)->chain.LatestCommitted()->data.props.at(1),
            PropertyValue(2.5));
}

TEST(ObjectCache, InsertNewAndErase) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), 0, epochs);
  auto node = cache.InsertNewNode(10);
  ASSERT_TRUE(node.ok());
  EXPECT_NE(cache.PeekNode(10), nullptr);
  // Double insert of a live entry is an engine bug...
  ASSERT_TRUE(
      (*node)->chain.InstallUncommitted(1, VersionData{}).ok());
  ASSERT_TRUE((*node)->chain.CommitHead(1, 5).ok());
  EXPECT_TRUE(cache.InsertNewNode(10).status().IsInternal());
  // ...but a defunct (tombstone) entry is silently replaced (purge race).
  auto rel = cache.InsertNewRel(3, 1, 2, 0);
  ASSERT_TRUE(rel.ok());
  VersionData dead;
  dead.deleted = true;
  ASSERT_TRUE((*rel)->chain.InstallUncommitted(1, dead).ok());
  ASSERT_TRUE((*rel)->chain.CommitHead(1, 6).ok());
  EXPECT_TRUE(cache.InsertNewRel(3, 5, 6, 1).ok());
  EXPECT_EQ(cache.PeekRel(3)->src, 5u);

  cache.EraseNode(10);
  EXPECT_EQ(cache.PeekNode(10), nullptr);
}

// The cache's shard count: ids this far apart share a shard, so their
// loads put eviction pressure on each other.
constexpr NodeId kShardStride = 64;

// Persists a committed single-version node whose id falls in shard 0 and
// returns its id (the ids skipped on the way stay free records).
NodeId PersistShard0Node(GraphStore* store, int64_t value = 0) {
  NodeId id = *store->AllocateNodeId();
  while (id % kShardStride != 0) id = *store->AllocateNodeId();
  EXPECT_TRUE(
      store->PersistNewNode(id, {}, {{1, PropertyValue(value)}}, 1).ok());
  return id;
}

TEST(ObjectCache, ResidentCountStaysAtCapacityAfterTenfoldLoads) {
  auto store = MakeStore();
  EpochManager epochs;
  constexpr size_t kCapacity = 4 * kShardStride;
  ObjectCache cache(store.get(), kCapacity, epochs);
  for (size_t i = 0; i < 10 * kCapacity; ++i) {
    const NodeId id = *store->AllocateNodeId();
    ASSERT_TRUE(store->PersistNewNode(id, {}, {}, 1).ok());
    ASSERT_TRUE(cache.GetNode(id).ok());
  }
  EXPECT_LE(cache.ResidentCount(), kCapacity);
  const ObjectCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.resident_nodes, cache.ResidentCount());
  EXPECT_EQ(stats.evictions, 10 * kCapacity - cache.ResidentCount());
}

TEST(ObjectCache, EvictionSparesPinnedAndHeldEntries) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), /*capacity=*/4, epochs);

  // Old versions exist only in the cache.
  const NodeId multi = PersistShard0Node(store.get());
  {
    auto node = cache.GetNode(multi);
    ASSERT_TRUE(node.ok());
    ASSERT_TRUE((*node)->chain.InstallUncommitted(9, VersionData{}).ok());
    ASSERT_TRUE((*node)->chain.CommitHead(9, 2).ok());
  }
  // Uncommitted state belongs to a live writer.
  const NodeId writing = PersistShard0Node(store.get());
  {
    auto node = cache.GetNode(writing);
    ASSERT_TRUE(node.ok());
    ASSERT_TRUE((*node)->chain.InstallUncommitted(5, VersionData{}).ok());
  }
  // A caller holding the object (a writer waiting for its write lock) must
  // find it still cached, or a rival would commit to a different chain.
  const NodeId held_id = PersistShard0Node(store.get());
  auto held = cache.GetNode(held_id);
  ASSERT_TRUE(held.ok());

  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(cache.GetNode(PersistShard0Node(store.get())).ok());
  }
  EXPECT_GT(cache.Stats().evictions, 0u);
  EXPECT_LE(cache.ResidentCount(), 4u + 3u);
  EXPECT_NE(cache.PeekNode(multi), nullptr) << "multi-version entry evicted";
  EXPECT_NE(cache.PeekNode(writing), nullptr) << "uncommitted entry evicted";
  EXPECT_EQ(cache.PeekNode(held_id), *held) << "held entry evicted";
}

TEST(ObjectCache, PinnedOvershootDrainsOnLaterLoads) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), /*capacity=*/4, epochs);
  std::vector<std::shared_ptr<CachedNode>> holders;
  for (int i = 0; i < 12; ++i) {
    holders.push_back(*cache.GetNode(PersistShard0Node(store.get())));
  }
  EXPECT_EQ(cache.ResidentCount(), 12u);  // All held: nothing evictable.
  holders.clear();
  // Each over-capacity load may evict two, so the overshoot drains.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(cache.GetNode(PersistShard0Node(store.get())).ok());
  }
  EXPECT_LE(cache.ResidentCount(), 4u);
}

TEST(ObjectCache, ReferencedEntryOutlivesColdOnes) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), /*capacity=*/4, epochs);
  const NodeId hot = PersistShard0Node(store.get());
  ASSERT_TRUE(cache.GetNode(hot).ok());
  std::vector<NodeId> cold;
  for (int i = 0; i < 32; ++i) {
    cold.push_back(PersistShard0Node(store.get()));
    ASSERT_TRUE(cache.GetNode(cold.back()).ok());
    ASSERT_NE(cache.PeekNode(hot), nullptr) << "hot entry evicted at " << i;
    ASSERT_TRUE(cache.GetNode(hot).ok());  // Hit: sets its reference bit.
  }
  EXPECT_EQ(cache.PeekNode(cold.front()), nullptr);
  EXPECT_LE(cache.ResidentCount(), 4u);
}

TEST(ObjectCache, EvictedEntryReloadsFromStore) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), /*capacity=*/1, epochs);
  std::vector<NodeId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(PersistShard0Node(store.get(), i));
    ASSERT_TRUE(cache.GetNode(ids.back()).ok());
  }
  EXPECT_EQ(cache.ResidentCount(), 1u);
  for (int i = 0; i < 5; ++i) {
    auto node = cache.GetNode(ids[i]);
    ASSERT_TRUE(node.ok());
    EXPECT_EQ(node->get()->chain.LatestCommitted()->data.props.at(1),
              PropertyValue(int64_t{i}));
  }
  EXPECT_GE(cache.Stats().loads, 9u);
}

// Loads, hits and evictions race on a tiny cache: every object a thread
// holds stays the cached one, and every load reads the stored value (the
// TSan and ASan jobs run this suite).
TEST(ObjectCache, ConcurrentLoadsNeverEvictAHeldObject) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), /*capacity=*/kShardStride, epochs);
  constexpr int kNodes = 1024;
  std::vector<NodeId> ids;
  for (int i = 0; i < kNodes; ++i) {
    const NodeId id = *store->AllocateNodeId();
    ASSERT_TRUE(store->PersistNewNode(
                        id, {}, {{1, PropertyValue(int64_t{i})}}, 1)
                    .ok());
    ids.push_back(id);
  }
  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t x = 0x9E3779B97F4A7C15ull * (t + 1);
      for (int i = 0; i < 4000; ++i) {
        x ^= x << 13, x ^= x >> 7, x ^= x << 17;
        const int k = static_cast<int>(x % kNodes);
        auto node = cache.GetNode(ids[k]);
        if (!node.ok() || cache.PeekNode(ids[k]) != *node ||
            (*node)->chain.LatestCommitted()->data.props.at(1) !=
                PropertyValue(int64_t{k})) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(cache.Stats().evictions, 0u);
  EXPECT_EQ(cache.Stats().resident_nodes, cache.ResidentCount());
}

TEST(ObjectCache, StatsCountResidentVersions) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), 0, epochs);
  const NodeId id = *store->AllocateNodeId();
  ASSERT_TRUE(store->PersistNewNode(id, {}, {}, 1).ok());
  auto node = cache.GetNode(id);
  ASSERT_TRUE(node.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*node)->chain.InstallUncommitted(50 + i, VersionData{}).ok());
    ASSERT_TRUE((*node)->chain.CommitHead(50 + i, 10 + i).ok());
  }
  ObjectCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.resident_nodes, 1u);
  EXPECT_EQ(stats.resident_versions, 4u);
  EXPECT_GT(stats.approx_bytes, 0u);
}

// The hit counters take no latch: concurrent lookups must still count every
// hit exactly once (the TSan job runs this suite).
TEST(ObjectCache, ConcurrentHitsAreAllCounted) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), 0, epochs);
  const NodeId id = *store->AllocateNodeId();
  ASSERT_TRUE(store->PersistNewNode(id, {}, {}, 1).ok());
  ASSERT_TRUE(cache.GetNode(id).ok());  // The one miss + load.

  constexpr int kThreads = 4;
  constexpr int kLookups = 2000;
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kLookups; ++i) {
        auto node = cache.GetNode(id);
        if (node.ok()) (void)(*node)->chain.LatestCommitted();
      }
    });
  }
  for (auto& reader : readers) reader.join();
  const ObjectCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.node_hits, uint64_t{kThreads} * kLookups);
  EXPECT_EQ(stats.node_misses, 1u);
  EXPECT_EQ(stats.loads, 1u);
}

// The capacity is enforced by the cache itself: with the GC daemon off,
// committed creations and cold reads still leave it at capacity.
TEST(ObjectCache, CapacityHoldsWithoutGcDaemon) {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 0;
  constexpr size_t kCapacity = 4 * kShardStride;
  options.object_cache_capacity = kCapacity;
  auto db = std::move(*GraphDatabase::Open(options));
  std::vector<NodeId> ids;
  for (int batch = 0; batch < 100; ++batch) {
    auto txn = db->Begin();
    for (int i = 0; i < 10; ++i) {
      auto id = txn->CreateNode({"P"}, {{"n", PropertyValue(int64_t{
                                                  batch * 10 + i})}});
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
  ObjectCacheStats stats = db->Stats().cache;
  EXPECT_LE(stats.resident_nodes + stats.resident_rels, kCapacity);

  auto reader = db->Begin();
  for (size_t i = 0; i < ids.size(); ++i) {
    auto value = reader->GetNodeProperty(ids[i], "n");
    ASSERT_TRUE(value.ok()) << value.status();
    EXPECT_EQ(*value, PropertyValue(static_cast<int64_t>(i)));
  }
  ASSERT_TRUE(reader->Commit().ok());
  stats = db->Stats().cache;
  EXPECT_LE(stats.resident_nodes + stats.resident_rels, kCapacity);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.loads, 0u);
}

}  // namespace
}  // namespace neosi
