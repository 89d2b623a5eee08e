// The benchmark workloads behind one interface. A workload owns its
// database (and, for wire_social, the server), generates every input from
// the seed, hands out one ClientDriver per client thread, and checks its
// correctness gate once the clients are done.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph_database.h"
#include "trace.h"

namespace perfbench {

/// SplitMix64: the benchmark's own generator, so its inputs depend on the
/// seed and this file only, never on engine code.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double NextDouble() { return (Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from the run seed and a purpose tag.
uint64_t StreamSeed(uint64_t seed, uint64_t purpose, uint64_t index = 0);

/// Zipf(theta) over ranks 0..n-1, P(k) ~ 1/(k+1)^theta. Shared read-only by
/// all clients; each draws with its own Rng.
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  uint64_t Draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// One client's stream of logical operations.
class ClientDriver {
 public:
  virtual ~ClientDriver() = default;
  /// Draws the next logical operation from this client's seeded stream.
  virtual void Next() = 0;
  /// Makes one attempt at the current operation, Begin through Commit.
  /// OK means it committed; a retryable status means it rolled back.
  virtual neosi::Status Run(Tracer& tracer) = 0;
  /// Records the committed attempt in the workload's acknowledgement ledger.
  virtual void Ack() = 0;
};

struct WorkloadConfig {
  uint64_t seed = 0;
  std::string dir;  ///< Scratch directory for on-disk databases.
  double scale = 1.0;  ///< Multiplies the data sizes (self-tests shrink them).
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Opens the database and generates the data (not the warm-up).
  virtual neosi::Status Setup() = 0;
  /// Logical operations each client runs to warm up before the window.
  virtual uint64_t warmup_ops() const = 0;
  virtual std::unique_ptr<ClientDriver> NewClient(int index) = 0;
  virtual neosi::GraphDatabase& db() = 0;
  /// Object-cache capacity the database was opened with (objects).
  virtual uint64_t cache_capacity() const = 0;
  /// Runs the correctness gate; empty string on success. May stop the
  /// server and close and reopen the database.
  virtual std::string Check() = 0;

  /// Self-test hooks; each must make Check() fail. FabricateLostUpdate
  /// commits a write and then silently undoes its effect (or half of it);
  /// FabricateAck acknowledges a commit that never happened.
  virtual neosi::Status FabricateLostUpdate() = 0;
  virtual void FabricateAck() = 0;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
