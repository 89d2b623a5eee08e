// CheckpointDaemon pacing: interval passes, WAL-threshold nudges, idle
// skips, WAL growth bounding under write load, and recovery correctness
// when the daemon checkpoints concurrently with committers.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph_database.h"

namespace neosi {
namespace {

DatabaseOptions MemOptions() {
  DatabaseOptions options;  // in-memory by default
  options.background_gc_interval_ms = 0;
  return options;
}

bool WaitUntil(const std::function<bool()>& cond, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

TEST(CheckpointDaemon, DisabledWhenIntervalZero) {
  auto options = MemOptions();
  options.checkpoint_interval_ms = 0;
  auto db = std::move(*GraphDatabase::Open(options));
  EXPECT_EQ(db->checkpoint_daemon(), nullptr);
  const DatabaseStats stats = db->Stats();
  EXPECT_EQ(stats.checkpoint_daemon_passes, 0u);
}

TEST(CheckpointDaemon, IdleWakeupsSkipWithoutCheckpointing) {
  auto options = MemOptions();
  options.checkpoint_interval_ms = 1;
  options.checkpoint_wal_threshold = 64ull << 20;  // Never reached.
  auto db = std::move(*GraphDatabase::Open(options));
  ASSERT_NE(db->checkpoint_daemon(), nullptr);
  ASSERT_TRUE(WaitUntil(
      [&] { return db->checkpoint_daemon()->idle_skips() >= 3; }));
  const DatabaseStats stats = db->Stats();
  EXPECT_EQ(stats.store.checkpoints, 0u);
  EXPECT_EQ(stats.checkpoint_daemon_passes, 0u);
  EXPECT_GE(stats.checkpoint_daemon_idle_skips, 3u);
}

TEST(CheckpointDaemon, BoundsWalGrowthUnderWriteLoad) {
  auto options = MemOptions();
  options.checkpoint_interval_ms = 2;
  options.checkpoint_wal_threshold = 2048;
  auto db = std::move(*GraphDatabase::Open(options));

  auto setup = db->Begin();
  const NodeId id =
      *setup->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
  ASSERT_TRUE(setup->Commit().ok());

  for (int i = 1; i <= 400; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(
        txn->SetNodeProperty(id, "v", PropertyValue(int64_t{i})).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  ASSERT_TRUE(WaitUntil([&] { return db->Stats().store.checkpoints >= 1; }));

  const DatabaseStats stats = db->Stats();
  EXPECT_GE(stats.checkpoint_daemon_passes, 1u);
  EXPECT_GT(stats.store.checkpoint_bytes_truncated, 0u);

  // Quiesced: one manual checkpoint empties the live log entirely.
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_EQ(db->engine().store.wal().SizeBytes(), 0u);
  auto reader = db->Begin();
  EXPECT_EQ(reader->GetNodeProperty(id, "v")->AsInt(), 400);
}

TEST(CheckpointDaemon, CommitPublicationNudgesPastLongInterval) {
  auto options = MemOptions();
  options.checkpoint_interval_ms = 60000;  // Interval alone would never fire.
  options.checkpoint_wal_threshold = 256;
  auto db = std::move(*GraphDatabase::Open(options));

  auto setup = db->Begin();
  const NodeId id =
      *setup->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
  ASSERT_TRUE(setup->Commit().ok());

  for (int i = 0; i < 50; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(
        txn->SetNodeProperty(id, "v", PropertyValue(int64_t{i})).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  ASSERT_TRUE(WaitUntil(
      [&] { return db->checkpoint_daemon()->nudge_passes() >= 1; }));
  EXPECT_GE(db->Stats().checkpoint_daemon_nudge_passes, 1u);
}

// On-disk: the daemon checkpoints aggressively while writers commit; after
// reopen every acked value must be present (truncation never drops an
// unapplied record, markers steer replay correctly).
TEST(CheckpointDaemon, RecoveryIsExactUnderConcurrentDaemonCheckpoints) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("neosi_ckpt_daemon_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  constexpr int kWriters = 3;
  constexpr int kCommitsPerWriter = 80;
  std::vector<NodeId> nodes(kWriters);
  {
    DatabaseOptions options;
    options.in_memory = false;
    options.path = dir.string();
    options.background_gc_interval_ms = 0;
    options.checkpoint_interval_ms = 1;
    options.checkpoint_wal_threshold = 512;
    auto db = std::move(*GraphDatabase::Open(options));
    {
      auto txn = db->Begin();
      for (int w = 0; w < kWriters; ++w) {
        nodes[w] = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{-1})}});
      }
      ASSERT_TRUE(txn->Commit().ok());
    }
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kCommitsPerWriter; ++i) {
          auto txn = db->Begin();
          ASSERT_TRUE(txn->SetNodeProperty(nodes[w], "v",
                                           PropertyValue(int64_t{i}))
                          .ok());
          ASSERT_TRUE(txn->Commit().ok());
        }
      });
    }
    for (auto& t : writers) t.join();
    // The daemon must actually checkpoint under this load (the accumulated
    // WAL is far past the threshold, so a pass is guaranteed to come).
    EXPECT_TRUE(
        WaitUntil([&] { return db->Stats().store.checkpoints >= 1; }));
  }
  {
    DatabaseOptions options;
    options.in_memory = false;
    options.path = dir.string();
    options.background_gc_interval_ms = 0;
    options.checkpoint_interval_ms = 0;
    auto db = std::move(*GraphDatabase::Open(options));
    auto reader = db->Begin();
    for (int w = 0; w < kWriters; ++w) {
      EXPECT_EQ(reader->GetNodeProperty(nodes[w], "v")->AsInt(),
                kCommitsPerWriter - 1)
          << "writer " << w << " lost acked commits across reopen";
    }
  }
  fs::remove_all(dir);
}

// The latent reclamation gap of the pre-rotation WAL, closed: on a
// hole-less backend (the in-memory one — PUNCH_HOLE zeroed bytes but freed
// nothing) the daemon's checkpoints now reclaim by unlinking whole
// segments, so the physical footprint shrinks for real and the lifecycle
// counters prove it was segment reclamation doing the work.
TEST(CheckpointDaemon, ReclaimsWholeSegmentsOnHolelessBackend) {
  auto options = MemOptions();
  options.checkpoint_interval_ms = 1;
  options.checkpoint_wal_threshold = 512;
  options.wal_segment_size = 1024;
  options.wal_recycle_segments = 1;
  auto db = std::move(*GraphDatabase::Open(options));

  auto setup = db->Begin();
  const NodeId id =
      *setup->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
  ASSERT_TRUE(setup->Commit().ok());

  for (int i = 1; i <= 400; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(
        txn->SetNodeProperty(id, "v", PropertyValue(int64_t{i})).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // The workload wrote many segments' worth of log; the daemon must have
  // rotated AND physically retired dead segments (delete or recycle).
  ASSERT_TRUE(WaitUntil([&] {
    const DatabaseStats stats = db->Stats();
    return stats.store.wal_segments_deleted +
               stats.store.wal_segments_recycled >=
           1;
  }));
  const DatabaseStats mid = db->Stats();
  EXPECT_GT(mid.store.wal_segments_created, 1u);

  // Quiesced: one manual checkpoint collapses the chain to a single
  // (bounded) active segment — the footprint is BOUNDED, not hole-punched.
  ASSERT_TRUE(db->Checkpoint().ok());
  const DatabaseStats stats = db->Stats();
  EXPECT_EQ(stats.store.wal_bytes, 0u);
  EXPECT_EQ(stats.store.wal_segments, 1u);
  EXPECT_LE(stats.store.wal_physical_bytes, options.wal_segment_size);
  // Recycling honored its cap.
  EXPECT_LE(stats.store.wal_segments_recycled,
            stats.store.wal_segments_reused + options.wal_recycle_segments);
  auto reader = db->Begin();
  EXPECT_EQ(reader->GetNodeProperty(id, "v")->AsInt(), 400);
}

// Segment pacing: even when the byte threshold is far away, a chain that
// has rolled past a segment nudges the daemon so the cold segment gets
// reclaimed promptly.
TEST(CheckpointDaemon, SegmentRolloverNudgesPastByteThreshold) {
  auto options = MemOptions();
  options.checkpoint_interval_ms = 60000;  // Interval alone would never fire.
  options.checkpoint_wal_threshold = 64ull << 20;  // Bytes alone: never.
  options.wal_segment_size = 1024;
  auto db = std::move(*GraphDatabase::Open(options));

  auto setup = db->Begin();
  const NodeId id =
      *setup->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
  ASSERT_TRUE(setup->Commit().ok());

  for (int i = 0; i < 100; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(
        txn->SetNodeProperty(id, "v", PropertyValue(int64_t{i})).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // The chain rolled (monotonic counter — the daemon may already have
  // reclaimed the cold segments by the time we look at the live count).
  ASSERT_GT(db->Stats().store.wal_segments_created, 1u);
  ASSERT_TRUE(WaitUntil(
      [&] { return db->checkpoint_daemon()->nudge_passes() >= 1; }));
  ASSERT_TRUE(WaitUntil([&] {
    const DatabaseStats stats = db->Stats();
    return stats.store.wal_segments_deleted +
               stats.store.wal_segments_recycled >=
           1;
  }));
}

}  // namespace
}  // namespace neosi
