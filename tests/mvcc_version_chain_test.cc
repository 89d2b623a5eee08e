// VersionChain: visibility rule, read-your-own-writes, commit/abort, GC
// pruning — the heart of §3's read rule.

#include <gtest/gtest.h>

#include "mvcc/epoch.h"
#include "mvcc/version_chain.h"

namespace neosi {
namespace {

VersionData Data(int64_t v, bool deleted = false) {
  VersionData data;
  data.deleted = deleted;
  data.props[1] = PropertyValue(v);
  return data;
}

int64_t ValueOf(const std::shared_ptr<const Version>& v) {
  return v->data.props.at(1).AsInt();
}

TEST(VersionChain, EmptyChainHasNothingVisible) {
  EpochManager epochs;
  VersionChain chain(epochs);
  EXPECT_EQ(chain.Visible(100, 1), nullptr);
  EXPECT_EQ(chain.LatestCommitted(), nullptr);
  EXPECT_EQ(chain.Length(), 0u);
  EXPECT_TRUE(chain.Empty());
  EXPECT_EQ(chain.NewestCommitTs(), kNoTimestamp);
}

TEST(VersionChain, InstallCommitRead) {
  EpochManager epochs;
  VersionChain chain(epochs);
  auto v = chain.InstallUncommitted(7, Data(10));
  ASSERT_TRUE(v.ok());
  // Uncommitted: visible only to the writer.
  EXPECT_EQ(chain.Visible(100, 7), *v);
  EXPECT_EQ(chain.Visible(100, 8), nullptr);
  EXPECT_TRUE(chain.HasUncommitted());

  auto superseded = chain.CommitHead(7, 50);
  ASSERT_TRUE(superseded.ok());
  EXPECT_EQ(*superseded, nullptr);  // First version supersedes nothing.
  EXPECT_EQ(ValueOf(chain.Visible(50, 8)), 10);
  EXPECT_EQ(chain.Visible(49, 8), nullptr);  // Before the commit.
  EXPECT_EQ(chain.NewestCommitTs(), 50u);
}

TEST(VersionChain, ReadRuleMostRecentAtOrBeforeStart) {
  EpochManager epochs;
  VersionChain chain(epochs);
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(chain.InstallUncommitted(i, Data(i * 10)).ok());
    ASSERT_TRUE(chain.CommitHead(i, i * 100).ok());
  }
  // §3: "the most recent committed version ... with a commit timestamp equal
  // or lower than the start timestamp".
  EXPECT_EQ(ValueOf(chain.Visible(100, 99)), 10);
  EXPECT_EQ(ValueOf(chain.Visible(250, 99)), 20);
  EXPECT_EQ(ValueOf(chain.Visible(300, 99)), 30);
  EXPECT_EQ(ValueOf(chain.Visible(kMaxTimestamp, 99)), 50);
  EXPECT_EQ(chain.Visible(99, 99), nullptr);
  EXPECT_EQ(chain.Length(), 5u);
}

TEST(VersionChain, SameTxnCollapsesPendingWrites) {
  EpochManager epochs;
  VersionChain chain(epochs);
  ASSERT_TRUE(chain.InstallUncommitted(1, Data(1)).ok());
  ASSERT_TRUE(chain.CommitHead(1, 10).ok());
  // Two writes by txn 2 produce ONE pending version.
  ASSERT_TRUE(chain.InstallUncommitted(2, Data(2)).ok());
  ASSERT_TRUE(chain.InstallUncommitted(2, Data(3)).ok());
  EXPECT_EQ(chain.Length(), 2u);
  EXPECT_EQ(ValueOf(chain.Visible(100, 2)), 3);
  ASSERT_TRUE(chain.CommitHead(2, 20).ok());
  EXPECT_EQ(ValueOf(chain.Visible(20, 99)), 3);
}

TEST(VersionChain, ConcurrentUncommittedWritersIsEngineBug) {
  EpochManager epochs;
  VersionChain chain(epochs);
  ASSERT_TRUE(chain.InstallUncommitted(1, Data(1)).ok());
  auto second = chain.InstallUncommitted(2, Data(2));
  EXPECT_TRUE(second.status().IsInternal());
}

TEST(VersionChain, AbortRemovesPendingOnly) {
  EpochManager epochs;
  VersionChain chain(epochs);
  ASSERT_TRUE(chain.InstallUncommitted(1, Data(1)).ok());
  ASSERT_TRUE(chain.CommitHead(1, 10).ok());
  ASSERT_TRUE(chain.InstallUncommitted(2, Data(2)).ok());
  chain.AbortHead(2);
  EXPECT_EQ(chain.Length(), 1u);
  EXPECT_EQ(ValueOf(chain.Visible(10, 99)), 1);
  // Abort by the wrong txn is a no-op.
  ASSERT_TRUE(chain.InstallUncommitted(3, Data(3)).ok());
  chain.AbortHead(4);
  EXPECT_EQ(chain.Length(), 2u);
  chain.AbortHead(3);
  EXPECT_EQ(chain.Length(), 1u);
}

TEST(VersionChain, CommitWithoutPendingIsInternal) {
  EpochManager epochs;
  VersionChain chain(epochs);
  EXPECT_TRUE(chain.CommitHead(1, 10).status().IsInternal());
  ASSERT_TRUE(chain.InstallUncommitted(1, Data(1)).ok());
  EXPECT_TRUE(chain.CommitHead(2, 10).status().IsInternal());  // Wrong txn.
}

TEST(VersionChain, CommitReturnsSupersededVersion) {
  EpochManager epochs;
  VersionChain chain(epochs);
  ASSERT_TRUE(chain.InstallUncommitted(1, Data(1)).ok());
  ASSERT_TRUE(chain.CommitHead(1, 10).ok());
  ASSERT_TRUE(chain.InstallUncommitted(2, Data(2)).ok());
  auto superseded = chain.CommitHead(2, 20);
  ASSERT_TRUE(superseded.ok());
  ASSERT_NE(*superseded, nullptr);
  EXPECT_EQ((*superseded)->commit_ts, 10u);
}

TEST(VersionChain, TombstoneVersionVisibleAsDeleted) {
  EpochManager epochs;
  VersionChain chain(epochs);
  ASSERT_TRUE(chain.InstallUncommitted(1, Data(1)).ok());
  ASSERT_TRUE(chain.CommitHead(1, 10).ok());
  ASSERT_TRUE(chain.InstallUncommitted(2, Data(0, /*deleted=*/true)).ok());
  ASSERT_TRUE(chain.CommitHead(2, 20).ok());
  // Old snapshot: live version. New snapshot: tombstone.
  EXPECT_FALSE(chain.Visible(15, 99)->data.deleted);
  EXPECT_TRUE(chain.Visible(25, 99)->data.deleted);
}

TEST(VersionChain, RemoveUnlinksSpecificVersion) {
  EpochManager epochs;
  VersionChain chain(epochs);
  std::vector<std::shared_ptr<Version>> versions;
  for (int i = 1; i <= 4; ++i) {
    versions.push_back(*chain.InstallUncommitted(i, Data(i)));
    ASSERT_TRUE(chain.CommitHead(i, i * 10).ok());
  }
  // Remove a middle version.
  EXPECT_TRUE(chain.Remove(versions[1]));
  EXPECT_EQ(chain.Length(), 3u);
  EXPECT_FALSE(chain.Remove(versions[1]));  // Already gone.
  // Remove the head.
  EXPECT_TRUE(chain.Remove(versions[3]));
  EXPECT_EQ(ValueOf(chain.Visible(kMaxTimestamp, 99)), 3);
  // Remove the tail.
  EXPECT_TRUE(chain.Remove(versions[0]));
  EXPECT_EQ(chain.Length(), 1u);
}

TEST(VersionChain, PruneSupersededUpToWatermark) {
  EpochManager epochs;
  VersionChain chain(epochs);
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(chain.InstallUncommitted(i, Data(i)).ok());
    ASSERT_TRUE(chain.CommitHead(i, i * 10).ok());
  }
  // Watermark 35: newest committed <= 35 is ts 30; versions 10, 20 die.
  EXPECT_EQ(chain.PruneSupersededUpTo(35), 2u);
  EXPECT_EQ(chain.Length(), 3u);
  EXPECT_EQ(ValueOf(chain.Visible(30, 99)), 3);
  // Idempotent.
  EXPECT_EQ(chain.PruneSupersededUpTo(35), 0u);
  // Everything below the max: keep only the newest.
  EXPECT_EQ(chain.PruneSupersededUpTo(1000), 2u);
  EXPECT_EQ(chain.Length(), 1u);
}

TEST(VersionChain, PruneRespectsUncommittedHead) {
  EpochManager epochs;
  VersionChain chain(epochs);
  ASSERT_TRUE(chain.InstallUncommitted(1, Data(1)).ok());
  ASSERT_TRUE(chain.CommitHead(1, 10).ok());
  ASSERT_TRUE(chain.InstallUncommitted(2, Data(2)).ok());
  // Pending head is not committed; the committed version survives.
  EXPECT_EQ(chain.PruneSupersededUpTo(1000), 0u);
  EXPECT_EQ(chain.Length(), 2u);
}

TEST(VersionChain, LongChainDestructionDoesNotOverflowStack) {
  EpochManager epochs;
  auto chain = std::make_unique<VersionChain>(epochs);
  for (int i = 1; i <= 200000; ++i) {
    ASSERT_TRUE(chain->InstallUncommitted(i, VersionData{}).ok());
    ASSERT_TRUE(chain->CommitHead(i, i).ok());
  }
  EXPECT_EQ(chain->Length(), 200000u);
  chain.reset();  // Iterative destructor must not blow the stack.
}

}  // namespace
}  // namespace neosi
