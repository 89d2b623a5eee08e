// One benchmark run in one process: set up a workload, measure a closed
// loop of client threads for a fixed window, check correctness, and report
// either the end-to-end metrics (untraced) or the per-layer metrics
// (traced) as one JSON line on stdout.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 30;
  bool trace = false;
  /// Only open, generate and warm up, then report setup_s and exit.
  bool setup_only = false;
  /// Scratch directory for the database and the span file.
  std::string dir;
};

/// Client threads (and wire connections) per workload: one per core less
/// one, which leaves a core to the engine's daemons, capped at 3 so the
/// workload is the same on larger machines.
int ClientCount();

/// Runs the benchmark and prints its JSON line. Returns the exit code:
/// 0 on success, 1 when a correctness check failed, 2 on a setup error.
int RunBenchmark(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
