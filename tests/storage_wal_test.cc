// WAL framing, op serialization, torn-tail handling, segment rotation,
// recycle pool, chain validation, and refusal of pre-segment logs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "storage/wal.h"

namespace neosi {
namespace {

WalRecord MakeRecord(TxnId txn, Timestamp ts) {
  WalRecord record;
  record.txn_id = txn;
  record.commit_ts = ts;
  record.ops.push_back(WalOp::CreateNode(
      1, {2, 3}, {{4, PropertyValue("value")}, {5, PropertyValue(int64_t{9})}}));
  record.ops.push_back(WalOp::SetNodeProperty(1, 4, PropertyValue(false)));
  record.ops.push_back(WalOp::AddLabel(1, 7));
  record.ops.push_back(WalOp::CreateRel(2, 1, 3, 0, {{4, PropertyValue(1.5)}}));
  record.ops.push_back(WalOp::DeleteRel(2));
  record.ops.push_back(WalOp::DeleteNode(1));
  record.ops.push_back(
      WalOp::CreateToken(TokenKind::kPropertyKey, 4, "weight"));
  record.ops.push_back(WalOp::PurgeNode(9));
  record.ops.push_back(WalOp::PurgeRel(8, 1, 3, 10, 11, 12, 13));
  record.ops.push_back(WalOp::RemoveLabel(1, 7));
  record.ops.push_back(WalOp::RemoveNodeProperty(1, 5));
  record.ops.push_back(WalOp::SetRelProperty(2, 4, PropertyValue("x")));
  record.ops.push_back(WalOp::RemoveRelProperty(2, 4));
  record.ops.push_back(WalOp::Checkpoint(123456789));
  return record;
}

/// Small single-op record for segment-rotation tests (predictable frames).
WalRecord SmallRecord(TxnId txn, Timestamp ts) {
  WalRecord record;
  record.txn_id = txn;
  record.commit_ts = ts;
  record.ops.push_back(WalOp::DeleteNode(txn));
  return record;
}

std::unique_ptr<Wal> OpenWal(std::shared_ptr<InMemoryWalDir> dir,
                             WalOptions options = {}) {
  auto wal = std::make_unique<Wal>(std::move(dir), options);
  EXPECT_TRUE(wal->Open().ok());
  return wal;
}

std::vector<Timestamp> ReplayTimestamps(Wal* wal) {
  std::vector<Timestamp> seen;
  EXPECT_TRUE(wal->ReadAll([&](const WalRecord& record) {
                   seen.push_back(record.commit_ts);
                   return Status::OK();
                 })
                  .ok());
  return seen;
}

std::vector<std::string> ListNames(InMemoryWalDir* dir) {
  std::vector<std::string> names;
  EXPECT_TRUE(dir->List(&names).ok());
  std::sort(names.begin(), names.end());
  return names;
}

TEST(WalOps, RecordRoundTrip) {
  WalRecord record = MakeRecord(42, 99);
  std::string buf;
  record.EncodeTo(&buf);
  WalRecord out;
  ASSERT_TRUE(WalRecord::DecodeFrom(Slice(buf), &out).ok());
  EXPECT_EQ(out.txn_id, 42u);
  EXPECT_EQ(out.commit_ts, 99u);
  ASSERT_EQ(out.ops.size(), record.ops.size());
  EXPECT_EQ(out.ops[0].type, WalOpType::kCreateNode);
  EXPECT_EQ(out.ops[0].labels, (std::vector<LabelId>{2, 3}));
  EXPECT_EQ(out.ops[0].props.at(4), PropertyValue("value"));
  EXPECT_EQ(out.ops[3].type, WalOpType::kCreateRel);
  EXPECT_EQ(out.ops[3].src, 1u);
  EXPECT_EQ(out.ops[3].dst, 3u);
  EXPECT_EQ(out.ops[6].name, "weight");
  EXPECT_EQ(out.ops[6].token_kind, TokenKind::kPropertyKey);
  EXPECT_EQ(out.ops[8].type, WalOpType::kPurgeRel);
  EXPECT_EQ(out.ops[8].src_prev, 10u);
  EXPECT_EQ(out.ops[8].dst_next, 13u);
  EXPECT_EQ(out.ops.back().type, WalOpType::kCheckpoint);
  EXPECT_EQ(out.ops.back().id, 123456789u);
}

TEST(WalOps, TrailingBytesRejected) {
  WalRecord record = MakeRecord(1, 2);
  std::string buf;
  record.EncodeTo(&buf);
  buf += "extra";
  WalRecord out;
  EXPECT_TRUE(WalRecord::DecodeFrom(Slice(buf), &out).IsCorruption());
}

TEST(Wal, AppendAndReadAll) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir);
  for (int i = 1; i <= 5; ++i) {
    auto lsn = wal->Append(MakeRecord(i, i * 10));
    ASSERT_TRUE(lsn.ok());
  }
  EXPECT_EQ(ReplayTimestamps(wal.get()),
            (std::vector<Timestamp>{10, 20, 30, 40, 50}));
}

TEST(Wal, LsnsAreMonotonic) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir);
  Lsn prev = 0;
  for (int i = 0; i < 3; ++i) {
    auto lsn = wal->Append(MakeRecord(1, 1));
    ASSERT_TRUE(lsn.ok());
    if (i > 0) {
      EXPECT_GT(*lsn, prev);
    }
    prev = *lsn;
  }
}

TEST(Wal, TornTailTruncated) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir);
  ASSERT_TRUE(wal->Append(MakeRecord(1, 10)).ok());
  ASSERT_TRUE(wal->Append(MakeRecord(2, 20)).ok());
  const uint64_t valid = wal->SizeBytes();
  // Simulate a torn frame in the active segment: plausible header, garbage
  // payload.
  std::unique_ptr<PagedFile> raw;
  ASSERT_TRUE(dir->Open(wal->SegmentNameOf(wal->NextLsn()), &raw).ok());
  const char torn[] = "\x40\x00\x00\x00\x99\x99\x99\x99only-half-written";
  ASSERT_TRUE(raw->WriteAt(wal->PhysOf(wal->NextLsn()), torn, sizeof torn).ok());

  EXPECT_EQ(ReplayTimestamps(wal.get()).size(), 2u);
  EXPECT_EQ(wal->SizeBytes(), valid);  // Tail dropped.
  // Appends continue cleanly after truncation.
  ASSERT_TRUE(wal->Append(MakeRecord(3, 30)).ok());
  EXPECT_EQ(ReplayTimestamps(wal.get()),
            (std::vector<Timestamp>{10, 20, 30}));
}

TEST(Wal, CorruptPayloadStopsReplay) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir);
  ASSERT_TRUE(wal->Append(MakeRecord(1, 10)).ok());
  const Lsn second = *wal->Append(MakeRecord(2, 20));
  // Flip a payload byte of the second frame: CRC must catch it.
  std::unique_ptr<PagedFile> raw;
  ASSERT_TRUE(dir->Open(wal->SegmentNameOf(second), &raw).ok());
  char byte;
  ASSERT_TRUE(raw->ReadAt(wal->PhysOf(second) + 12, 1, &byte).ok());
  byte ^= 0x40;
  ASSERT_TRUE(raw->WriteAt(wal->PhysOf(second) + 12, &byte, 1).ok());
  EXPECT_EQ(ReplayTimestamps(wal.get()), (std::vector<Timestamp>{10}));
}

TEST(Wal, OpenPositionsCursorAfterValidPrefix) {
  auto dir = std::make_shared<InMemoryWalDir>();
  uint64_t valid;
  {
    auto wal = OpenWal(dir);
    ASSERT_TRUE(wal->Append(MakeRecord(1, 10)).ok());
    valid = wal->SizeBytes();
  }
  auto reopened = OpenWal(dir);
  EXPECT_EQ(reopened->SizeBytes(), valid);
}

TEST(Wal, AppendBatchFramesDecodeIndividually) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir);
  ASSERT_TRUE(wal->Append(MakeRecord(1, 10)).ok());

  WalRecord a = MakeRecord(2, 20);
  WalRecord b = MakeRecord(3, 30);
  WalRecord c = MakeRecord(4, 40);
  std::vector<Lsn> lsns;
  ASSERT_TRUE(wal->AppendBatch({&a, &b, &c}, &lsns).ok());
  ASSERT_EQ(lsns.size(), 3u);
  EXPECT_LT(lsns[0], lsns[1]);
  EXPECT_LT(lsns[1], lsns[2]);

  EXPECT_EQ(ReplayTimestamps(wal.get()),
            (std::vector<Timestamp>{10, 20, 30, 40}));
}

// ---------------------------------------------------------------------------
// Segment rotation
// ---------------------------------------------------------------------------

WalOptions TinySegments(uint64_t segment_size = 192,
                        uint64_t recycle_segments = 0) {
  WalOptions options;
  options.segment_size = segment_size;
  options.recycle_segments = recycle_segments;
  return options;
}

TEST(WalSegments, AppendRollsAtThreshold) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir, TinySegments());
  EXPECT_EQ(wal->SegmentCount(), 1u);

  std::vector<Timestamp> expect;
  for (int i = 1; i <= 24; ++i) {
    ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
    expect.push_back(i * 10);
  }
  EXPECT_GT(wal->SegmentCount(), 1u);
  // Every segment file stays within the configured size.
  for (const std::string& name : ListNames(dir.get())) {
    std::unique_ptr<PagedFile> raw;
    ASSERT_TRUE(dir->Open(name, &raw).ok());
    EXPECT_LE(raw->Size(), 192u) << name;
  }
  // Replay crosses every boundary in order.
  EXPECT_EQ(ReplayTimestamps(wal.get()), expect);
}

TEST(WalSegments, LsnsStayMonotonicAndContiguousAcrossRolls) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir, TinySegments());
  Lsn prev_end = wal->NextLsn();
  for (int i = 1; i <= 40; ++i) {
    const Lsn lsn = *wal->Append(SmallRecord(i, i));
    // Contiguous lsn space: each record starts exactly where the previous
    // one ended, even when the physical write moved to a new segment.
    EXPECT_EQ(lsn, prev_end);
    prev_end = wal->NextLsn();
    EXPECT_GT(prev_end, lsn);
  }
  ASSERT_GT(wal->SegmentCount(), 2u);
  // Replayed lsns come back identical and strictly increasing.
  std::vector<Lsn> lsns;
  ASSERT_TRUE(wal->ReadFrom(0, [&](Lsn lsn, const WalRecord&) {
                   lsns.push_back(lsn);
                   return Status::OK();
                 })
                  .ok());
  ASSERT_EQ(lsns.size(), 40u);
  for (size_t i = 1; i < lsns.size(); ++i) EXPECT_GT(lsns[i], lsns[i - 1]);
}

TEST(WalSegments, BatchAppendSplitsAtSegmentBoundaries) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir, TinySegments());
  std::vector<WalRecord> records;
  std::vector<const WalRecord*> ptrs;
  for (int i = 1; i <= 16; ++i) records.push_back(SmallRecord(i, i * 10));
  for (const auto& r : records) ptrs.push_back(&r);
  std::vector<Lsn> lsns;
  ASSERT_TRUE(wal->AppendBatch(ptrs, &lsns).ok());
  EXPECT_GT(wal->SegmentCount(), 1u);
  std::vector<Timestamp> expect;
  for (int i = 1; i <= 16; ++i) expect.push_back(i * 10);
  EXPECT_EQ(ReplayTimestamps(wal.get()), expect);
}

TEST(WalSegments, OversizedRecordGetsItsOwnSegment) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir, TinySegments(128));
  ASSERT_TRUE(wal->Append(SmallRecord(1, 10)).ok());
  // MakeRecord's frame is far larger than a 128-byte segment: it must still
  // append (one segment to itself) and replay.
  ASSERT_TRUE(wal->Append(MakeRecord(2, 20)).ok());
  ASSERT_TRUE(wal->Append(SmallRecord(3, 30)).ok());
  EXPECT_EQ(ReplayTimestamps(wal.get()),
            (std::vector<Timestamp>{10, 20, 30}));
}

TEST(WalSegments, FailedWriteAfterMidBatchRollIsRolledBack) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir, TinySegments());
  ASSERT_TRUE(wal->Append(SmallRecord(1, 10)).ok());

  // A batch big enough to roll mid-way, armed to fail right after the
  // roll: the fresh (empty) segment must be un-rolled, or the cursor would
  // sit BELOW the active base and every later append would underflow its
  // physical offset.
  wal->fault_hooks.Set([calls = 0](const char* point) mutable -> Status {
    if (std::string(point) == "wal.append.fail_after_roll" && ++calls == 1) {
      return Status::IOError("injected write failure after roll");
    }
    return Status::OK();
  });
  std::vector<WalRecord> records;
  std::vector<const WalRecord*> ptrs;
  for (int i = 2; i <= 17; ++i) records.push_back(SmallRecord(i, i * 10));
  for (const auto& r : records) ptrs.push_back(&r);
  std::vector<Lsn> lsns;
  EXPECT_TRUE(wal->AppendBatch(ptrs, &lsns, nullptr).IsIOError());
  EXPECT_EQ(wal->SegmentCount(), 1u);  // The fresh segment was un-rolled.
  wal->fault_hooks.Set(nullptr);

  // The log is fully usable: appends land at the cursor (overwriting the
  // partial batch) and everything replays.
  ASSERT_TRUE(wal->AppendBatch(ptrs, &lsns).ok());
  ASSERT_TRUE(wal->Append(SmallRecord(99, 990)).ok());
  std::vector<Timestamp> expect{10};
  for (int i = 2; i <= 17; ++i) expect.push_back(i * 10);
  expect.push_back(990);
  EXPECT_EQ(ReplayTimestamps(wal.get()), expect);
  // And a reopen sees the same consistent chain.
  wal.reset();
  auto reopened = OpenWal(dir, TinySegments());
  EXPECT_EQ(ReplayTimestamps(reopened.get()), expect);
}

TEST(WalSegments, ChainSurvivesReopen) {
  auto dir = std::make_shared<InMemoryWalDir>();
  std::vector<Timestamp> expect;
  uint64_t segments;
  {
    auto wal = OpenWal(dir, TinySegments());
    for (int i = 1; i <= 24; ++i) {
      ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
      expect.push_back(i * 10);
    }
    segments = wal->SegmentCount();
    ASSERT_GT(segments, 1u);
  }
  auto reopened = OpenWal(dir, TinySegments());
  EXPECT_EQ(reopened->SegmentCount(), segments);
  EXPECT_EQ(ReplayTimestamps(reopened.get()), expect);
  // Appends continue above everything ever written.
  const Lsn next = reopened->NextLsn();
  EXPECT_GT(*reopened->Append(SmallRecord(99, 990)), 0u);
  EXPECT_GT(reopened->NextLsn(), next);
}

// ---------------------------------------------------------------------------
// Prefix truncation = unconditional whole-segment reclamation
// ---------------------------------------------------------------------------

TEST(WalTruncatePrefix, DropsOnlyThePrefix) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir);
  ASSERT_TRUE(wal->Append(MakeRecord(1, 10)).ok());
  ASSERT_TRUE(wal->Append(MakeRecord(2, 20)).ok());
  const Lsn third = *wal->Append(MakeRecord(3, 30));

  ASSERT_TRUE(wal->TruncatePrefix(third).ok());
  EXPECT_EQ(wal->HeadLsn(), third);
  EXPECT_EQ(ReplayTimestamps(wal.get()), (std::vector<Timestamp>{30}));

  // Appends continue above the truncated prefix; lsns stay monotonic.
  const Lsn fourth = *wal->Append(MakeRecord(4, 40));
  EXPECT_GT(fourth, third);
  EXPECT_EQ(ReplayTimestamps(wal.get()), (std::vector<Timestamp>{30, 40}));
}

TEST(WalTruncatePrefix, AtZeroAndBelowHeadAreNoOps) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir);
  // Truncating an empty log at zero does nothing.
  ASSERT_TRUE(wal->TruncatePrefix(0).ok());
  EXPECT_EQ(wal->HeadLsn(), 0u);
  EXPECT_EQ(wal->SizeBytes(), 0u);

  ASSERT_TRUE(wal->Append(MakeRecord(1, 10)).ok());
  const Lsn second = *wal->Append(MakeRecord(2, 20));
  ASSERT_TRUE(wal->TruncatePrefix(second).ok());
  const uint64_t live = wal->SizeBytes();

  // Zero (and anything at or below the head) must not move the head back.
  ASSERT_TRUE(wal->TruncatePrefix(0).ok());
  ASSERT_TRUE(wal->TruncatePrefix(second).ok());
  EXPECT_EQ(wal->HeadLsn(), second);
  EXPECT_EQ(wal->SizeBytes(), live);
  EXPECT_EQ(ReplayTimestamps(wal.get()).size(), 1u);
}

TEST(WalTruncatePrefix, AtEndEmptiesLogAndBeyondEndIsRejected) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir);
  ASSERT_TRUE(wal->Append(MakeRecord(1, 10)).ok());
  ASSERT_TRUE(wal->Append(MakeRecord(2, 20)).ok());
  const Lsn end = wal->NextLsn();

  EXPECT_TRUE(wal->TruncatePrefix(end + 1).IsInvalidArgument());

  ASSERT_TRUE(wal->TruncatePrefix(end).ok());
  EXPECT_EQ(wal->SizeBytes(), 0u);
  EXPECT_TRUE(ReplayTimestamps(wal.get()).empty());

  // The log is still appendable, with monotonically continuing lsns.
  const Lsn next = *wal->Append(MakeRecord(3, 30));
  EXPECT_GE(next, end);
  EXPECT_EQ(ReplayTimestamps(wal.get()).size(), 1u);
}

TEST(WalTruncatePrefix, UnlinksWholeSegmentsOnAnyBackend) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir, TinySegments());
  for (int i = 1; i <= 24; ++i) {
    ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
  }
  const uint64_t before_segments = wal->SegmentCount();
  const uint64_t before_phys = wal->PhysicalBytes();
  ASSERT_GT(before_segments, 2u);

  // Truncate at the append cursor: every segment below the active one is
  // physically unlinked — no hole punching, no quiescent rebase, the file
  // count and byte footprint actually shrink.
  ASSERT_TRUE(wal->TruncatePrefix(wal->NextLsn()).ok());
  EXPECT_EQ(wal->SegmentCount(), 1u);
  EXPECT_LT(wal->PhysicalBytes(), before_phys);
  EXPECT_EQ(wal->segments_deleted(), before_segments - 1);
  EXPECT_EQ(ListNames(dir.get()).size(), 1u);  // Only the active segment.
  EXPECT_TRUE(ReplayTimestamps(wal.get()).empty());

  // Appends and replay continue normally.
  ASSERT_TRUE(wal->Append(SmallRecord(99, 990)).ok());
  EXPECT_EQ(ReplayTimestamps(wal.get()), (std::vector<Timestamp>{990}));
}

TEST(WalTruncatePrefix, PartialSegmentStaysUntilWhollyDead) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir, TinySegments());
  std::vector<Lsn> lsns;
  std::vector<Timestamp> ts;
  for (int i = 1; i <= 24; ++i) {
    lsns.push_back(*wal->Append(SmallRecord(i, i * 10)));
    ts.push_back(i * 10);
  }
  ASSERT_GT(wal->SegmentCount(), 2u);
  // Truncate to a mid-chain record: segments wholly below go away, the one
  // containing the cut stays (its tail is live).
  const size_t cut = 13;
  const uint64_t before = wal->SegmentCount();
  ASSERT_TRUE(wal->TruncatePrefix(lsns[cut]).ok());
  EXPECT_LT(wal->SegmentCount(), before);
  EXPECT_GE(wal->SegmentCount(), 1u);
  EXPECT_EQ(ReplayTimestamps(wal.get()),
            std::vector<Timestamp>(ts.begin() + cut, ts.end()));
}

TEST(WalTruncatePrefix, HeadSurvivesReopenAtSegmentGranularity) {
  auto dir = std::make_shared<InMemoryWalDir>();
  std::vector<Timestamp> live;
  Lsn head_after_truncate;
  {
    auto wal = OpenWal(dir, TinySegments());
    std::vector<Lsn> lsns;
    for (int i = 1; i <= 24; ++i) {
      lsns.push_back(*wal->Append(SmallRecord(i, i * 10)));
    }
    ASSERT_GT(wal->SegmentCount(), 2u);
    ASSERT_TRUE(wal->TruncatePrefix(lsns[13]).ok());
    head_after_truncate = wal->HeadLsn();
    ASSERT_TRUE(wal->ReadAll([&](const WalRecord& record) {
                     live.push_back(record.commit_ts);
                     return Status::OK();
                   })
                    .ok());
  }
  auto reopened = OpenWal(dir, TinySegments());
  // The head is re-derived from the oldest retained segment: at or below
  // the pre-crash logical head, never above it (nothing live is lost).
  EXPECT_LE(reopened->HeadLsn(), head_after_truncate);
  std::vector<Timestamp> replayed = ReplayTimestamps(reopened.get());
  // Replay may include a few already-applied records from the partially
  // truncated segment (idempotent), but the live suffix must be intact.
  ASSERT_GE(replayed.size(), live.size());
  EXPECT_TRUE(std::equal(live.rbegin(), live.rend(), replayed.rbegin()));
}

TEST(WalTruncatePrefix, TornTailAfterTruncationStillDetected) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir);
  ASSERT_TRUE(wal->Append(MakeRecord(1, 10)).ok());
  const Lsn second = *wal->Append(MakeRecord(2, 20));
  ASSERT_TRUE(wal->TruncatePrefix(second).ok());
  ASSERT_TRUE(wal->Append(MakeRecord(3, 30)).ok());

  // Torn frame beyond the valid suffix.
  std::unique_ptr<PagedFile> raw;
  ASSERT_TRUE(dir->Open(wal->SegmentNameOf(wal->NextLsn()), &raw).ok());
  const char torn[] = "\x30\x00\x00\x00\x77\x77\x77\x77half";
  ASSERT_TRUE(raw->WriteAt(wal->PhysOf(wal->NextLsn()), torn, sizeof torn).ok());

  EXPECT_EQ(ReplayTimestamps(wal.get()),
            (std::vector<Timestamp>{20, 30}));  // prefix gone, tail cut
  // The torn bytes were truncated; appends continue cleanly.
  ASSERT_TRUE(wal->Append(MakeRecord(4, 40)).ok());
  EXPECT_EQ(ReplayTimestamps(wal.get()),
            (std::vector<Timestamp>{20, 30, 40}));
}

// ---------------------------------------------------------------------------
// Recycle pool
// ---------------------------------------------------------------------------

TEST(WalRecycle, RetiredSegmentsParkInPoolAndGetReused) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir, TinySegments(192, /*recycle_segments=*/2));
  for (int i = 1; i <= 24; ++i) {
    ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
  }
  const uint64_t retired = wal->SegmentCount() - 1;
  ASSERT_GE(retired, 2u);
  ASSERT_TRUE(wal->TruncatePrefix(wal->NextLsn()).ok());

  // Pool capped at 2: two renamed into the pool, the rest unlinked.
  EXPECT_EQ(wal->segments_recycled(), 2u);
  EXPECT_EQ(wal->segments_deleted(), retired - 2);
  int free_files = 0;
  for (const std::string& name : ListNames(dir.get())) {
    free_files += name.rfind("wal.free.", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(free_files, 2);

  // New rolls drain the pool before creating fresh files, then run dry.
  const uint64_t created_before = wal->segments_created();
  for (int i = 25; i <= 96; ++i) {
    ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
  }
  EXPECT_EQ(wal->segments_reused(), 2u);
  EXPECT_GT(wal->segments_created(), created_before);  // Pool ran dry.
  // Reused segments replay like any other.
  std::vector<Timestamp> expect;
  for (int i = 25; i <= 96; ++i) expect.push_back(i * 10);
  EXPECT_EQ(ReplayTimestamps(wal.get()), expect);
}

TEST(WalRecycle, PoolSurvivesReopenAndExcessIsTrimmed) {
  auto dir = std::make_shared<InMemoryWalDir>();
  {
    auto wal = OpenWal(dir, TinySegments(192, /*recycle_segments=*/2));
    for (int i = 1; i <= 24; ++i) {
      ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
    }
    ASSERT_TRUE(wal->TruncatePrefix(wal->NextLsn()).ok());
    ASSERT_EQ(wal->segments_recycled(), 2u);
  }
  // Reopen with a smaller pool: one free file adopted, the extra removed.
  auto reopened = OpenWal(dir, TinySegments(192, /*recycle_segments=*/1));
  int free_files = 0;
  for (const std::string& name : ListNames(dir.get())) {
    free_files += name.rfind("wal.free.", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(free_files, 1);
  for (int i = 1; i <= 12; ++i) {
    ASSERT_TRUE(reopened->Append(SmallRecord(i, i)).ok());
  }
  EXPECT_EQ(reopened->segments_reused(), 1u);
}

// ---------------------------------------------------------------------------
// Chain validation at Open: orphans, gaps, half-created segments
// ---------------------------------------------------------------------------

TEST(WalChain, HalfCreatedNewestSegmentIsDiscarded) {
  auto dir = std::make_shared<InMemoryWalDir>();
  std::vector<Timestamp> expect;
  uint64_t last_index_plus_one;
  {
    auto wal = OpenWal(dir, TinySegments());
    for (int i = 1; i <= 24; ++i) {
      ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
      expect.push_back(i * 10);
    }
    last_index_plus_one = wal->SegmentCount() + 1;
  }
  // Simulate a crash during segment creation: a newest segment file whose
  // header never became durable (garbage bytes).
  std::unique_ptr<PagedFile> husk;
  ASSERT_TRUE(dir->Open(Wal::SegmentName(last_index_plus_one), &husk).ok());
  ASSERT_TRUE(husk->WriteAt(0, "garbage-half-written-header", 27).ok());

  auto reopened = OpenWal(dir, TinySegments());
  EXPECT_FALSE(dir->Exists(Wal::SegmentName(last_index_plus_one)));
  EXPECT_EQ(ReplayTimestamps(reopened.get()), expect);
  // Appends continue; the discarded index is never resurrected with stale
  // content (a fresh header is written before any frame).
  ASSERT_TRUE(reopened->Append(SmallRecord(99, 990)).ok());
}

TEST(WalChain, ValidEmptyNewestSegmentIsAccepted) {
  // The state a REAL crash at the post-create point leaves behind: a fully
  // created (valid header, zero frames) segment at the end of the chain
  // that no append ever entered. Open must adopt it, not reject it.
  auto dir = std::make_shared<InMemoryWalDir>();
  std::vector<Timestamp> expect;
  uint64_t segments;
  Lsn cursor;
  {
    auto wal = OpenWal(dir, TinySegments());
    for (int i = 1; i <= 24; ++i) {
      ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
      expect.push_back(i * 10);
    }
    segments = wal->SegmentCount();
    cursor = wal->NextLsn();
    ASSERT_GT(segments, 1u);
  }
  // Craft the half-adopted segment: valid header anchored at the cursor.
  char header[32] = {};
  EncodeFixed32(header, 0x3153574e);  // "NWS1"
  EncodeFixed32(header + 4, 1);       // version
  EncodeFixed64(header + 8, cursor);  // base
  EncodeFixed64(header + 16, 7);      // epoch
  EncodeFixed32(header + 24, Crc32c(header, 24));
  std::unique_ptr<PagedFile> crafted;
  ASSERT_TRUE(dir->Open(Wal::SegmentName(segments + 1), &crafted).ok());
  ASSERT_TRUE(crafted->WriteAt(0, header, sizeof header).ok());
  crafted.reset();

  auto reopened = OpenWal(dir, TinySegments());
  EXPECT_EQ(reopened->SegmentCount(), segments + 1);
  EXPECT_EQ(reopened->NextLsn(), cursor);
  EXPECT_EQ(ReplayTimestamps(reopened.get()), expect);
  ASSERT_TRUE(reopened->Append(SmallRecord(99, 990)).ok());
  expect.push_back(990);
  EXPECT_EQ(ReplayTimestamps(reopened.get()), expect);
}

TEST(WalChain, MissingMiddleSegmentIsCorruption) {
  auto dir = std::make_shared<InMemoryWalDir>();
  {
    auto wal = OpenWal(dir, TinySegments());
    for (int i = 1; i <= 24; ++i) {
      ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
    }
    ASSERT_GT(wal->SegmentCount(), 2u);
  }
  // A hole in the middle of the chain is a hole in the lsn space: refuse to
  // open rather than silently replay around missing committed records.
  ASSERT_TRUE(dir->Remove(Wal::SegmentName(2)).ok());
  Wal broken(dir, TinySegments());
  EXPECT_TRUE(broken.Open().IsCorruption());
}

TEST(WalChain, BadHeaderInsideTheChainIsCorruption) {
  auto dir = std::make_shared<InMemoryWalDir>();
  {
    auto wal = OpenWal(dir, TinySegments());
    for (int i = 1; i <= 24; ++i) {
      ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
    }
    ASSERT_GT(wal->SegmentCount(), 2u);
  }
  // Corrupt a NON-newest segment header: unlike the newest (where a torn
  // header means a crash before any frame), this is data loss — fail stop.
  std::unique_ptr<PagedFile> raw;
  ASSERT_TRUE(dir->Open(Wal::SegmentName(2), &raw).ok());
  char byte;
  ASSERT_TRUE(raw->ReadAt(9, 1, &byte).ok());
  byte ^= 0x5a;
  ASSERT_TRUE(raw->WriteAt(9, &byte, 1).ok());
  Wal broken(dir, TinySegments());
  EXPECT_TRUE(broken.Open().IsCorruption());
}

TEST(WalChain, TornFrameInsideOlderSegmentFailsReplayLoudly) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir, TinySegments());
  std::vector<Lsn> lsns;
  for (int i = 1; i <= 24; ++i) {
    lsns.push_back(*wal->Append(SmallRecord(i, i * 10)));
  }
  ASSERT_GT(wal->SegmentCount(), 2u);
  // Corrupt a frame in the FIRST segment: older segments were synced before
  // the chain rolled past them, so this is corruption of durably-acked
  // records — replay must say so, not silently truncate them away.
  std::unique_ptr<PagedFile> raw;
  ASSERT_TRUE(dir->Open(wal->SegmentNameOf(lsns[0]), &raw).ok());
  char byte;
  ASSERT_TRUE(raw->ReadAt(wal->PhysOf(lsns[0]) + 12, 1, &byte).ok());
  byte ^= 0x40;
  ASSERT_TRUE(raw->WriteAt(wal->PhysOf(lsns[0]) + 12, &byte, 1).ok());
  Status s = wal->ReadAll([](const WalRecord&) { return Status::OK(); });
  EXPECT_TRUE(s.IsCorruption()) << s;
}

// ---------------------------------------------------------------------------
// Pre-segment logs
// ---------------------------------------------------------------------------

TEST(Wal, OpenRefusesPreSegmentLogAndTouchesNoFile) {
  auto dir = std::make_shared<InMemoryWalDir>();
  const std::string legacy_bytes = "pre-segment frames";
  std::unique_ptr<PagedFile> file;
  ASSERT_TRUE(dir->Open(Wal::kLegacyName, &file).ok());
  ASSERT_TRUE(
      file->WriteAt(0, legacy_bytes.data(), legacy_bytes.size()).ok());
  file.reset();
  // Files Open() would otherwise remove or adopt.
  for (const std::string& name :
       {Wal::SegmentName(1), Wal::FreeName(2), Wal::PrepName(3)}) {
    ASSERT_TRUE(dir->Open(name, &file).ok());
    file.reset();
  }

  Wal wal(dir);
  Status s = wal.Open();
  EXPECT_TRUE(s.IsNotSupported()) << s;
  EXPECT_FALSE(s.IsRetryable());
  EXPECT_NE(s.ToString().find(Wal::kLegacyName), std::string::npos) << s;

  std::vector<std::string> names;
  ASSERT_TRUE(dir->List(&names).ok());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"wal.000001", "wal.free.000002",
                                             "wal.log", "wal.prep.000003"}));
  ASSERT_TRUE(dir->Open(Wal::kLegacyName, &file).ok());
  ASSERT_EQ(file->Size(), legacy_bytes.size());
  std::string read(legacy_bytes.size(), '\0');
  ASSERT_TRUE(file->ReadAt(0, read.size(), read.data()).ok());
  EXPECT_EQ(read, legacy_bytes);
}

// ---------------------------------------------------------------------------
// LSN pins / stable LSN (the fuzzy checkpoint's truncation bound)
// ---------------------------------------------------------------------------

TEST(WalPins, StableLsnTracksOldestPin) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir);
  EXPECT_EQ(wal->StableLsn(), wal->NextLsn());

  const Lsn a = *wal->Append(MakeRecord(1, 10), /*pin=*/true);
  const Lsn b = *wal->Append(MakeRecord(2, 20), /*pin=*/true);
  ASSERT_TRUE(wal->Append(MakeRecord(3, 30)).ok());  // unpinned
  EXPECT_EQ(wal->PinnedCount(), 2u);
  EXPECT_EQ(wal->StableLsn(), a);

  wal->Unpin(a);
  EXPECT_EQ(wal->StableLsn(), b);
  wal->Unpin(b);
  EXPECT_EQ(wal->PinnedCount(), 0u);
  EXPECT_EQ(wal->StableLsn(), wal->NextLsn());
}

TEST(WalPins, TruncationNeverPassesAPinAcrossSegments) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir, TinySegments());
  const Lsn pinned = *wal->Append(SmallRecord(1, 10), /*pin=*/true);
  for (int i = 2; i <= 24; ++i) {
    ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
  }
  ASSERT_GT(wal->SegmentCount(), 2u);
  // The stable lsn is held at the pin, so a checkpoint-driven truncation
  // cannot retire the pin's segment even though the chain rolled past it.
  ASSERT_TRUE(wal->TruncatePrefix(wal->StableLsn()).ok());
  EXPECT_EQ(wal->HeadLsn(), pinned);
  std::vector<Timestamp> replayed = ReplayTimestamps(wal.get());
  ASSERT_EQ(replayed.size(), 24u);
  EXPECT_EQ(replayed.front(), 10u);
  wal->Unpin(pinned);
  ASSERT_TRUE(wal->TruncatePrefix(wal->StableLsn()).ok());
  EXPECT_EQ(wal->SegmentCount(), 1u);
}

TEST(WalPins, GroupCommitPinsEveryPinnedParticipant) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const WalRecord record = MakeRecord(t * kPerThread + i + 1, 1);
        auto lsn = wal->group().Commit(record, /*sync=*/true, /*pin=*/true);
        if (!lsn.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // The record must be pin-protected until we release it.
        if (wal->StableLsn() > *lsn) failures.fetch_add(1);
        wal->Unpin(*lsn);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wal->PinnedCount(), 0u);
  EXPECT_EQ(wal->StableLsn(), wal->NextLsn());
}

TEST(GroupCommitter, ConcurrentSyncCommitsAllDurableAndDecodable) {
  auto dir = std::make_shared<InMemoryWalDir>();
  // Small segments: concurrent group-commit batches roll the chain many
  // times mid-flight.
  auto wal = OpenWal(dir, TinySegments(512));

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const WalRecord record =
            MakeRecord(t * kPerThread + i + 1, (t * kPerThread + i + 1) * 10);
        auto lsn = wal->group().Commit(record, /*sync=*/true);
        if (!lsn.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wal->group().records(), uint64_t{kThreads * kPerThread});
  EXPECT_GT(wal->SegmentCount(), 1u);

  // Every record must decode, exactly once.
  std::vector<TxnId> seen;
  ASSERT_TRUE(wal->ReadAll([&](const WalRecord& record) {
                   seen.push_back(record.txn_id);
                   return Status::OK();
                 })
                  .ok());
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), size_t{kThreads * kPerThread});
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<TxnId>(i + 1));
  }
}

// --- sticky poison & async commit I/O ----------------------------------------

TEST(WalPoison, SyncEioPoisonsUntilReopen) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir);  // Inline flush: the caller's thread fsyncs.
  ASSERT_TRUE(wal->Append(SmallRecord(1, 10)).ok());
  ASSERT_TRUE(wal->Sync().ok());
  ASSERT_TRUE(wal->Append(SmallRecord(2, 20)).ok());

  wal->fault_hooks.Set([](const char* point) -> Status {
    if (std::string(point) == "wal.sync.fail") {
      return Status::IOError("injected EIO");
    }
    return Status::OK();
  });
  EXPECT_TRUE(wal->Sync().IsIOError());
  EXPECT_TRUE(wal->poisoned());
  wal->fault_hooks.Set(nullptr);

  // Sticky: the fault is gone, but the log stays wedged — after a failed
  // fsync the kernel may have dropped the dirty pages, so a later clean
  // fsync acking them would be fsyncgate.
  EXPECT_TRUE(wal->Sync().IsIOError());
  EXPECT_TRUE(wal->Append(SmallRecord(3, 30)).status().IsIOError());
  WalRecord record = SmallRecord(4, 40);
  std::vector<const WalRecord*> ptrs{&record};
  std::vector<Lsn> lsns;
  EXPECT_TRUE(wal->AppendBatch(ptrs, &lsns, nullptr).IsIOError());
  EXPECT_TRUE(wal->group().Commit(SmallRecord(5, 50), true).status().IsIOError());
  EXPECT_TRUE(wal->PoisonedStatus().IsIOError());

  // Reopen re-reads what is really durable: the synced record survives,
  // the unsynced one was dropped with the failed write-back (the injected
  // EIO simulates exactly the kernel's behavior) — never a torn state.
  wal.reset();
  auto reopened = OpenWal(dir);
  EXPECT_FALSE(reopened->poisoned());
  EXPECT_EQ(ReplayTimestamps(reopened.get()), (std::vector<Timestamp>{10}));
  ASSERT_TRUE(reopened->Append(SmallRecord(6, 60)).ok());
  ASSERT_TRUE(reopened->Sync().ok());
}

TEST(WalPoison, ConcurrentSyncersSeeStickyFailure) {
  auto dir = std::make_shared<InMemoryWalDir>();
  auto wal = OpenWal(dir);
  // Fire on the 5th sync pass so several threads are mid-flight when the
  // EIO lands. The poisoned-flag check-then-publish is what TSan is
  // pointed at: a peer's fsync+watermark-advance must never interleave
  // with the poisoning pass in a way that acks lost bytes.
  wal->fault_hooks.Set([hits = 0](const char* point) mutable -> Status {
    if (std::string(point) == "wal.sync.fail" && ++hits == 5) {
      return Status::IOError("injected EIO");
    }
    return Status::OK();
  });

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool failed = false;
      for (int i = 0; i < kPerThread; ++i) {
        const TxnId txn = static_cast<TxnId>(t * kPerThread + i + 1);
        Status s = wal->Append(SmallRecord(txn, txn * 10)).status();
        if (s.ok()) s = wal->Sync();
        if (s.ok()) {
          // Per-thread monotonicity: once this thread has seen the sticky
          // failure, nothing it does may be acked again.
          EXPECT_FALSE(failed) << "ack after poison on thread " << t;
        } else {
          EXPECT_TRUE(s.IsIOError()) << s.ToString();
          failed = true;
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_TRUE(wal->poisoned());
  EXPECT_GT(failures.load(), 0);
  EXPECT_TRUE(wal->Sync().IsIOError());
}

TEST(WalAsyncFlush, WatermarkAcksExactlyTheSyncedPrefix) {
  auto dir = std::make_shared<InMemoryWalDir>();
  WalOptions options;
  options.async_flush = true;
  auto wal = OpenWal(dir, options);
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
  }
  // Sync() hands the cursor to the flusher and blocks on the watermark.
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(wal->FlushedLsn(), wal->NextLsn());

  // Group commit through the async hand-off: the ack implies the record's
  // LSN is at or below the watermark.
  auto lsn = wal->group().Commit(SmallRecord(9, 90), /*sync=*/true);
  ASSERT_TRUE(lsn.ok());
  EXPECT_GT(wal->FlushedLsn(), *lsn);
  EXPECT_EQ(wal->FlushedLsn(), wal->NextLsn());

  wal.reset();
  auto reopened = OpenWal(dir, options);
  EXPECT_EQ(ReplayTimestamps(reopened.get()).size(), 9u);
}

TEST(WalAsyncFlush, PoisonFailsWaitersAndLaterCommits) {
  auto dir = std::make_shared<InMemoryWalDir>();
  WalOptions options;
  options.async_flush = true;
  auto wal = OpenWal(dir, options);
  ASSERT_TRUE(wal->Append(SmallRecord(1, 10)).ok());
  ASSERT_TRUE(wal->Sync().ok());

  wal->fault_hooks.Set([](const char* point) -> Status {
    if (std::string(point) == "wal.sync.fail") {
      return Status::IOError("injected EIO");
    }
    return Status::OK();
  });
  ASSERT_TRUE(wal->Append(SmallRecord(2, 20)).ok());
  // The flusher hits the EIO; the blocked waiter must be failed, not left
  // hanging, and the already-durable watermark must not retreat.
  EXPECT_TRUE(wal->Sync().IsIOError());
  EXPECT_TRUE(wal->poisoned());
  wal->fault_hooks.Set(nullptr);
  EXPECT_TRUE(wal->group().Commit(SmallRecord(3, 30), true).status().IsIOError());

  wal.reset();
  auto reopened = OpenWal(dir, options);
  EXPECT_EQ(ReplayTimestamps(reopened.get()), (std::vector<Timestamp>{10}));
}

TEST(WalPrealloc, RollsAdoptPreparedSegmentsAndReopenDiscardsPrepFiles) {
  auto dir = std::make_shared<InMemoryWalDir>();
  WalOptions options = TinySegments(192, /*recycle_segments=*/2);
  options.async_flush = true;
  options.preallocate = true;
  auto wal = OpenWal(dir, options);
  constexpr int kRecords = 120;
  for (int i = 1; i <= kRecords; ++i) {
    ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
    // Each sync parks this thread on the watermark, which hands the core
    // to the flusher — its prep loop keeps the next segment ready, so
    // nearly every roll below is a rename adoption.
    ASSERT_TRUE(wal->Sync().ok());
  }
  EXPECT_GT(wal->SegmentCount(), 1u);
  EXPECT_GT(wal->segments_preallocated(), 0u);

  // The flusher may leave a prepared-but-unadopted wal.prep.* file behind
  // at shutdown; reopen must discard it (its header was never written, so
  // adopting it would be chain corruption) and replay everything.
  wal.reset();
  auto reopened = OpenWal(dir, options);
  for (const std::string& name : ListNames(dir.get())) {
    EXPECT_EQ(name.rfind("wal.prep.", 0), std::string::npos) << name;
  }
  EXPECT_EQ(ReplayTimestamps(reopened.get()).size(), size_t{kRecords});
  ASSERT_TRUE(reopened->Append(SmallRecord(kRecords + 1, 9990)).ok());
  ASSERT_TRUE(reopened->Sync().ok());
}

}  // namespace
}  // namespace neosi
