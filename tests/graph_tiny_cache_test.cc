// Isolation under cache pressure: an on-disk database whose object cache
// holds 64 objects, so version chains are evicted and reloaded from the
// store between (and during) concurrent commits. Writers take the cached
// object before they wait for the write lock; if eviction could drop an
// object a writer still holds, a rival would commit to a freshly loaded
// chain and the first-committer-wins check would miss it (a lost update).
// The recorded histories must pass the black-box checkers of si_checker.h,
// and a counter ledger must add up, live and after a reopen.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "common/random.h"
#include "graph/graph_database.h"
#include "si_checker.h"

namespace neosi {
namespace {

using sichecker::DsgChecker;
using sichecker::MakeValue;
using sichecker::SiHistoryChecker;
using sichecker::TxnRecord;

constexpr size_t kCacheCapacity = 64;
constexpr int kHotKeys = 12;
constexpr int kColdNodes = 600;
constexpr int kThreads = 4;

class TinyCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("neosi_tiny_cache_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DatabaseOptions Options() const {
    DatabaseOptions options;
    options.in_memory = false;
    options.path = dir_.string();
    options.object_cache_capacity = kCacheCapacity;
    // The daemon trims chains back to one version, which makes hot entries
    // evictable again while the workload runs.
    options.background_gc_interval_ms = 1;
    options.gc_backlog_threshold = 8;
    return options;
  }

  std::unique_ptr<GraphDatabase> Open() const {
    auto db = GraphDatabase::Open(Options());
    EXPECT_TRUE(db.ok()) << db.status();
    return std::move(*db);
  }

  /// Creates the hot keys (property `v` = 0, recorded as one committed
  /// writer so first reads attribute) and the cold filler whose reads keep
  /// the cache evicting. The filler commits in small batches: a creating
  /// transaction holds its objects until it commits, and a cache that
  /// overshoots only drains as it keeps missing.
  void Seed(GraphDatabase& db) {
    auto txn = db.Begin();
    seed_.id = txn->id();
    seed_.snapshot_ts = txn->start_ts();
    for (int i = 0; i < kHotKeys; ++i) {
      const NodeId id =
          *txn->CreateNode({"Hot"}, {{"v", PropertyValue(int64_t{0})}});
      seed_.writes[id] = 0;
      hot_.push_back(id);
    }
    ASSERT_TRUE(txn->Commit().ok());
    seed_.committed = true;
    seed_.commit_ts = txn->commit_ts();
    for (int batch = 0; batch < kColdNodes / 20; ++batch) {
      auto filler = db.Begin();
      for (int i = 0; i < 20; ++i) {
        const int64_t value = static_cast<int64_t>(cold_.size());
        cold_.push_back(
            *filler->CreateNode({"Cold"}, {{"c", PropertyValue(value)}}));
      }
      ASSERT_TRUE(filler->Commit().ok());
    }
  }

  /// Reads two cold nodes: misses that evict from the cache.
  bool TouchCold(Transaction& txn, Random& rng) const {
    for (int i = 0; i < 2; ++i) {
      const size_t k = rng.Uniform(cold_.size());
      auto value = txn.GetNodeProperty(cold_[k], "c");
      if (!value.ok()) return false;
      EXPECT_EQ(value->AsInt(), static_cast<int64_t>(k));
    }
    return true;
  }

  /// Each transaction reads 1-3 hot keys, touches the cold set, writes 1-2
  /// hot keys with unique values and commits (one in ten aborts on
  /// purpose).
  std::vector<TxnRecord> RecordHistory(GraphDatabase& db,
                                       IsolationLevel isolation,
                                       int txns_per_thread) const {
    std::mutex mu;
    std::vector<TxnRecord> history{seed_};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        Random rng(7919 * (t + 1));
        std::vector<TxnRecord> local;
        for (int i = 0; i < txns_per_thread; ++i) {
          auto txn = db.Begin(isolation);
          TxnRecord rec;
          rec.id = txn->id();
          rec.snapshot_ts = txn->start_ts();
          bool failed = false;
          const int reads = 1 + static_cast<int>(rng.Uniform(3));
          for (int r = 0; r < reads && !failed; ++r) {
            const NodeId key = hot_[rng.Uniform(hot_.size())];
            if (rec.reads.count(key)) continue;
            auto value = txn->GetNodeProperty(key, "v");
            failed = !value.ok();
            if (!failed) rec.reads[key] = value->AsInt();
          }
          failed = failed || !TouchCold(*txn, rng);
          const int writes = 1 + static_cast<int>(rng.Uniform(2));
          for (int w = 0; w < writes && !failed; ++w) {
            const NodeId key = hot_[rng.Uniform(hot_.size())];
            const int64_t value = MakeValue(t, i, w);
            failed =
                !txn->SetNodeProperty(key, "v", PropertyValue(value)).ok();
            if (!failed) rec.writes[key] = value;
          }
          if (failed || !txn->IsActive()) {
            if (txn->IsActive()) txn->Abort();
          } else if (rng.Uniform(10) == 0) {
            txn->Abort();
          } else {
            rec.committed = txn->Commit().ok();
            rec.commit_ts = txn->commit_ts();
          }
          local.push_back(std::move(rec));
        }
        std::lock_guard<std::mutex> guard(mu);
        for (TxnRecord& rec : local) history.push_back(std::move(rec));
      });
    }
    for (std::thread& worker : workers) worker.join();
    return history;
  }

  /// Cache pressure really interleaved with the workload: entries were
  /// evicted and loaded again, and the cache stayed near its capacity.
  void ExpectEvictionChurn(GraphDatabase& db) const {
    const ObjectCacheStats stats = db.Stats().cache;
    EXPECT_GT(stats.evictions, static_cast<uint64_t>(kColdNodes));
    EXPECT_GT(stats.loads, static_cast<uint64_t>(kColdNodes));
    EXPECT_LE(stats.resident_nodes, 2 * kCacheCapacity);
  }

  std::filesystem::path dir_;
  TxnRecord seed_;
  std::vector<NodeId> hot_;
  std::vector<NodeId> cold_;
};

size_t CountCommitted(const std::vector<TxnRecord>& history) {
  size_t n = 0;
  for (const TxnRecord& rec : history) n += rec.committed ? 1 : 0;
  return n;
}

TEST_F(TinyCacheTest, SnapshotIsolationHistoryPassesChecker) {
  auto db = Open();
  Seed(*db);
  auto history =
      RecordHistory(*db, IsolationLevel::kSnapshotIsolation, /*txns=*/500);
  ASSERT_GT(CountCommitted(history), 100u);
  ExpectEvictionChurn(*db);
  const auto violations = SiHistoryChecker(std::move(history)).Check();
  for (const auto& v : violations) ADD_FAILURE() << v;
}

TEST_F(TinyCacheTest, SerializableHistoryHasAcyclicDsg) {
  auto db = Open();
  Seed(*db);
  auto history =
      RecordHistory(*db, IsolationLevel::kSerializable, /*txns=*/500);
  ASSERT_GT(CountCommitted(history), 50u);
  ExpectEvictionChurn(*db);
  const auto si_violations = SiHistoryChecker(history).Check();
  for (const auto& v : si_violations) ADD_FAILURE() << v;
  const auto cycle = DsgChecker(std::move(history)).FindCycle();
  EXPECT_FALSE(cycle.has_value()) << cycle.value_or("");
}

// Read-modify-write increments on a few counters: every committed increment
// must be in the final sums, live and after a reopen replays the WAL.
TEST_F(TinyCacheTest, CounterLedgerLosesNoUpdate) {
  constexpr int kIncrementsPerThread = 500;
  int64_t committed_total = 0;
  {
    auto db = Open();
    Seed(*db);
    std::atomic<int64_t> committed{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        Random rng(104729 * (t + 1));
        for (int i = 0; i < kIncrementsPerThread; ++i) {
          auto txn = db->Begin();
          const NodeId key = hot_[rng.Uniform(4)];
          auto value = txn->GetNodeProperty(key, "v");
          if (!value.ok() || !TouchCold(*txn, rng) ||
              !txn->SetNodeProperty(key, "v",
                                    PropertyValue(value->AsInt() + 1))
                   .ok()) {
            if (txn->IsActive()) txn->Abort();
            continue;
          }
          if (txn->Commit().ok()) committed.fetch_add(1);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    committed_total = committed.load();
    ASSERT_GT(committed_total, kIncrementsPerThread);
    ExpectEvictionChurn(*db);

    auto reader = db->Begin();
    int64_t sum = 0;
    for (int k = 0; k < 4; ++k) {
      sum += reader->GetNodeProperty(hot_[k], "v")->AsInt();
    }
    EXPECT_EQ(sum, committed_total);
  }
  auto db = Open();
  auto reader = db->Begin();
  int64_t sum = 0;
  for (int k = 0; k < 4; ++k) {
    sum += reader->GetNodeProperty(hot_[k], "v")->AsInt();
  }
  EXPECT_EQ(sum, committed_total) << "after reopen";
}

}  // namespace
}  // namespace neosi
