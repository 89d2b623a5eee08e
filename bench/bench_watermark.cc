// Experiment E12 — the watermark rule (paper §3): "if the oldest transaction
// has start timestamp 100 and a data item has versions with commit
// timestamps 40, 56 and 90, the first two will never be read by any active
// transaction" — plus the cost of stragglers: how garbage accumulates while
// an old snapshot stays open and how quickly it drains once it closes.
//
// GC passes retire pruned versions into the epoch limbo and free them on
// the drain tick, so the drain column covers the unlink and the deferred
// free, with the epoch gauges showing the retire/free ledger.

#include <thread>

#include "bench/bench_common.h"

namespace neosi {
namespace bench {
namespace {

void PaperExample() {
  auto db = OpenDb();
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{40})}});
    (void)txn->Commit();
  }
  for (int64_t v : {56, 90}) {
    auto txn = db->Begin();
    (void)txn->SetNodeProperty(id, "v", PropertyValue(v));
    (void)txn->Commit();
  }
  auto oldest_active = db->Begin(IsolationLevel::kSnapshotIsolation);
  const Timestamp watermark = db->Watermark();
  GcStats stats = db->RunGc();
  std::printf("versions {40, 56, 90}; oldest active start ts = %llu\n",
              static_cast<unsigned long long>(oldest_active->start_ts()));
  std::printf("watermark = %llu, reclaimed = %llu (the '40' and '56' "
              "versions), chain length now = %zu\n",
              static_cast<unsigned long long>(watermark),
              static_cast<unsigned long long>(stats.versions_pruned),
              db->engine().cache->PeekNode(id)->chain.Length());
  std::printf("oldest active still reads: %lld (the '90' version)\n\n",
              static_cast<long long>(
                  oldest_active->GetNodeProperty(id, "v")->AsInt()));
}

struct Row {
  uint64_t straggler_updates = 0;
  uint64_t queued_during = 0;
  uint64_t reclaimed_during = 0;
  uint64_t reclaimed_after = 0;
  double drain_ms = 0;
  uint64_t epoch_retired = 0;
  uint64_t epoch_freed = 0;
};

Row StragglerRow(uint64_t updates) {
  DatabaseOptions options;
  options.in_memory = true;
  options.conflict_policy = ConflictPolicy::kFirstUpdaterWinsWait;
  options.background_gc_interval_ms = 0;  // manual passes only
  auto opened = GraphDatabase::Open(options);
  if (!opened.ok()) std::abort();
  auto db = std::move(*opened);
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    (void)txn->Commit();
  }
  Row row;
  row.straggler_updates = updates;
  auto straggler = db->Begin(IsolationLevel::kSnapshotIsolation);
  (void)straggler->GetNodeProperty(id, "v");
  for (uint64_t u = 0; u < updates; ++u) {
    auto txn = db->Begin();
    (void)txn->SetNodeProperty(id, "v",
                               PropertyValue(static_cast<int64_t>(u)));
    (void)txn->Commit();
  }
  // GC with the straggler open: nothing is reclaimable.
  GcStats during = db->RunGc();
  row.queued_during = db->engine().gc_list.size();
  row.reclaimed_during = during.versions_pruned;
  // Straggler closes: one pass drains the backlog. The pass unlinks +
  // retires, and its built-in drain tick frees the PREVIOUS cycle's
  // retirees — a second pass observes this cycle's frees.
  (void)straggler->Commit();
  Timer t;
  GcStats after = db->RunGc();
  (void)db->RunGc();  // The follow-up drain frees this batch.
  row.drain_ms = t.Seconds() * 1e3;
  row.reclaimed_after = after.versions_pruned;
  const DatabaseStats stats = db->Stats();
  row.epoch_retired = stats.epoch_retired;
  row.epoch_freed = stats.epoch_freed;
  return row;
}

}  // namespace
}  // namespace bench
}  // namespace neosi

int main() {
  using namespace neosi;
  using namespace neosi::bench;

  Banner("E12: the GC watermark",
         "versions older than what the oldest active transaction can read "
         "are dead (paper's {40,56,90}/100 example); stragglers pin garbage "
         "and one O(garbage) pass drains it when they finish — the unlink "
         "retires into limbo and the free lands one drain tick later");

  PaperExample();

  std::printf("%-18s %14s %16s %16s %10s %10s %10s\n", "straggler-updates",
              "queued-during", "reclaimed-during", "reclaimed-after",
              "drain(ms)", "retired", "freed");
  for (uint64_t updates : {100, 1000, 10000}) {
    const Row row = StragglerRow(Scaled(updates));
    std::printf("%-18llu %14llu %16llu %16llu %10.2f %10llu %10llu\n",
                static_cast<unsigned long long>(row.straggler_updates),
                static_cast<unsigned long long>(row.queued_during),
                static_cast<unsigned long long>(row.reclaimed_during),
                static_cast<unsigned long long>(row.reclaimed_after),
                row.drain_ms,
                static_cast<unsigned long long>(row.epoch_retired),
                static_cast<unsigned long long>(row.epoch_freed));
  }
  std::printf("\nexpected shape: reclaimed-during = 0 (straggler pins "
              "everything), queued-during = update count, reclaimed-after = "
              "update count, drain time proportional to the backlog, and "
              "retired = freed = 1 — the whole severed suffix retires as ONE "
              "limbo entry regardless of backlog size.\n");
  return 0;
}
