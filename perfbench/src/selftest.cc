// Self-tests of the benchmark's own logic: the percentile helper, the
// failure accounting and every workload's correctness gate.
//
//   perfbench_selftest <scratch dir>
//
// Exits 0 when every check passes. run.py runs it after each build.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::fprintf(stderr, "%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<uint64_t> Iota(uint64_t n) {
  std::vector<uint64_t> v(n);
  for (uint64_t i = 0; i < n; ++i) v[i] = n - i;  // descending: forces a sort
  return v;
}

void TestQuantile() {
  auto v = Iota(1000);
  auto p99 = Quantile(v, 0.99);
  Expect(p99 && *p99 == 990, "p99 of 1..1000 is 990 (10 samples beyond)");
  v = Iota(999);
  Expect(!Quantile(v, 0.99), "no p99 from 999 samples (9 beyond)");
  v = Iota(100);
  auto p50 = Quantile(v, 0.50);
  Expect(p50 && *p50 == 50, "p50 of 1..100 is 50");
  v.clear();
  Expect(!Quantile(v, 0.50), "no percentile of an empty sample");
}

void TestOutcomes() {
  Outcomes o;
  o.commits = 90;
  o.aborts = 5;
  o.busy = 3;
  o.errors = 2;
  Expect(o.attempted() == 100, "attempted counts commits, aborts, sheds, errors");
  Expect(o.failed_ratio() == 0.10, "failed_ratio counts aborts, Busy and errors");
  Outcomes shed;
  shed.commits = 3;
  shed.busy = 1;
  Expect(shed.failed_ratio() == 0.25, "a Busy shed alone is a failure");
  Expect(shed.attempts_per_txn() == 4.0 / 3.0, "attempts_per_txn = 4/3");
}

void TestPureGates() {
  const std::vector<int64_t> initial = {30, 40};
  const std::vector<uint64_t> acked = {2, 0};
  Expect(CheckAgeLedger(initial, acked, {32, 40}).empty(), "ledger passes");
  Expect(!CheckAgeLedger(initial, acked, {31, 40}).empty(),
         "ledger fails on a lost update");
  Expect(!CheckAgeLedger(initial, {2, 1}, {32, 40}).empty(),
         "ledger fails on a missing acknowledged commit");
}

// Builds a small instance of `name`, drives a few hundred operations through
// one client, and returns it with its gate passing.
std::unique_ptr<Workload> SmallRun(const std::string& name,
                                   const std::string& dir) {
  std::filesystem::remove_all(dir);
  WorkloadConfig config;
  config.seed = 7;
  config.dir = dir;
  config.scale = 0.01;
  auto w = MakeWorkload(name, config);
  neosi::Status s = w->Setup();
  Expect(s.ok(), name + ": setup " + s.ToString());
  if (!s.ok()) return nullptr;
  auto client = w->NewClient(0);
  Tracer tracer;
  for (int op = 0; op < 300; ++op) {
    client->Next();
    neosi::Status run;
    do {
      run = client->Run(tracer);
    } while (run.IsRetryable());
    if (!run.ok()) {
      Expect(false, name + ": operation " + run.ToString());
      return nullptr;
    }
    client->Ack();
  }
  const std::string why = w->Check();
  Expect(why.empty(), name + ": gate passes on a clean run " + why);
  return w;
}

void TestWorkloadGates(const std::string& dir) {
  for (const std::string& name : WorkloadNames()) {
    if (auto w = SmallRun(name, dir + "/" + name)) {
      neosi::Status s = w->FabricateLostUpdate();
      Expect(s.ok(), name + ": fabricate lost update " + s.ToString());
      Expect(!w->Check().empty(), name + ": gate fails on a lost update");
    }
    if (auto w = SmallRun(name, dir + "/" + name)) {
      w->FabricateAck();
      Expect(!w->Check().empty(),
             name + ": gate fails on a missing acknowledged commit");
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <scratch dir>\n");
    return 2;
  }
  perfbench::TestQuantile();
  perfbench::TestOutcomes();
  perfbench::TestPureGates();
  perfbench::TestWorkloadGates(argv[1]);
  std::fprintf(stderr, "%d self-test failure(s)\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
