#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "stats.h"
#include "workload.h"

namespace perfbench {

using neosi::DatabaseStats;
using neosi::Status;

namespace {

/// In traced phases one transaction attempt in this many records spans, so
/// a run's spans stay within a few tens of MiB.
constexpr uint64_t kTraceEvery = 12;
/// The traced run alternates untraced and traced phases of equal length.
constexpr int kTracePhases = 4;
/// Retry backoff after a retryable abort: kBackoffBase doubled per retry of
/// the same operation, up to kBackoffMaxShift doublings. Without it a
/// wait-die victim restarts at once, younger again, and dies again until
/// the older holder commits.
constexpr auto kBackoffBase = std::chrono::microseconds(50);
constexpr int kBackoffMaxShift = 5;
/// Gauge sampling period.
constexpr auto kSamplePeriod = std::chrono::milliseconds(250);
/// Each client's sample buffer is reserved before the window for this many
/// commits per second (about three times the fastest workload's rate), so
/// recording allocates nothing inside the window: buffers grown by doubling
/// there added about 30 MiB to social_cold's peak_rss_mb, varying with the
/// commit count.
constexpr double kReservedCommitsPerSecond = 40000;

enum Phase : int { kStop = -1, kUntraced = 0, kTraced = 1 };

uint64_t CpuNs(clockid_t clock) {
  struct timespec ts {};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

struct ClientResult {
  Outcomes out;
  uint64_t commits_in[2] = {0, 0};   // by phase the attempt started in
  /// One sample per committed attempt that started in an untraced phase:
  /// its wall-clock latency if `wall_clock`, else the CPU time of the
  /// client thread over it.
  bool wall_clock = false;
  std::vector<uint64_t> samples_ns;
  Tracer tracer;
  std::string first_error;
};

/// Closed loop: runs logical operations, each retried on retryable
/// statuses, until `max_ops` are done (warm-up) or the phase turns kStop.
void ClientLoop(ClientDriver& driver, const std::atomic<int>& phase,
                uint64_t max_ops, ClientResult* r) {
  uint64_t attempt_seq = 0;
  for (uint64_t ops = 0; max_ops == 0 || ops < max_ops; ++ops) {
    if (phase.load(std::memory_order_acquire) == kStop) break;
    driver.Next();
    for (int retry = 0;; ++retry) {
      const int ph = phase.load(std::memory_order_acquire);
      r->tracer.StartTxn(ph == kTraced && attempt_seq++ % kTraceEvery == 0);
      const uint64_t cpu_start = CpuNs(CLOCK_THREAD_CPUTIME_ID);
      const uint64_t start = NowNs();
      const Status s = driver.Run(r->tracer);
      const uint64_t end = NowNs();
      const uint64_t cpu_end = CpuNs(CLOCK_THREAD_CPUTIME_ID);
      r->tracer.EndTxn();
      if (s.ok()) {
        driver.Ack();
        ++r->out.commits;
        ++r->commits_in[ph == kTraced];
        if (ph != kTraced) {
          r->samples_ns.push_back(r->wall_clock ? end - start
                                                : cpu_end - cpu_start);
        }
        break;
      }
      if (s.IsBusy()) {
        ++r->out.busy;
      } else if (s.IsRetryable()) {
        ++r->out.aborts;
        if (s.IsAborted() || s.IsDeadlock()) ++r->out.conflicts;
      } else {
        ++r->out.errors;
        if (r->first_error.empty()) r->first_error = s.ToString();
        break;
      }
      if (phase.load(std::memory_order_acquire) == kStop) {
        ++r->out.abandoned;
        break;
      }
      std::this_thread::sleep_for(kBackoffBase *
                                  (1 << std::min(retry, kBackoffMaxShift)));
    }
  }
}

/// Runs one ClientLoop per client on its own thread and joins them.
void RunClients(std::vector<std::unique_ptr<ClientDriver>>& drivers,
                const std::atomic<int>& phase, uint64_t max_ops,
                std::vector<ClientResult>* results) {
  std::vector<std::thread> threads;
  for (size_t i = 0; i < drivers.size(); ++i) {
    threads.emplace_back(ClientLoop, std::ref(*drivers[i]), std::cref(phase),
                         max_ops, &(*results)[i]);
  }
  for (auto& t : threads) t.join();
}

/// Samples the cache, GC backlog and epoch-limbo gauges at a low rate.
class GaugeSampler {
 public:
  explicit GaugeSampler(neosi::GraphDatabase& db)
      : db_(db), thread_([this] { Loop(); }) {}
  ~GaugeSampler() { Stop(); }
  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> resident;  // cached nodes + rels
  uint64_t gc_backlog_peak = 0;
  uint64_t epoch_limbo_peak = 0;

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, kSamplePeriod, [this] { return stop_; })) {
      lock.unlock();
      const DatabaseStats st = db_.Stats();
      lock.lock();
      resident.push_back(
          static_cast<double>(st.cache.resident_nodes + st.cache.resident_rels));
      gc_backlog_peak = std::max(gc_backlog_peak, st.gc_queue);
      epoch_limbo_peak = std::max(epoch_limbo_peak, st.epoch_limbo);
    }
  }

  neosi::GraphDatabase& db_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;  // last: starts after the members it uses
};

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Voluntary plus involuntary context switches of the process so far.
uint64_t ContextSwitches() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }

  /// p50 and p99 of `ns` in microseconds, named `head` + "p50" + `tail`;
  /// a missing percentile (too few samples) reads 0 and is noted on stderr.
  void AddLatency(const std::string& head, std::vector<uint64_t> ns,
                  const std::string& tail = "") {
    for (const auto& [pct, q] : {std::pair{"p50", 0.50}, {"p99", 0.99}}) {
      const std::string name = head + pct + tail;
      auto v = Quantile(ns, q);
      if (!v) {
        std::fprintf(stderr, "note: %s has too few samples (%zu)\n",
                     name.c_str(), ns.size());
      }
      Add(name, v ? *v / 1e3 : 0.0, "us");
    }
  }

  void Print(const RunConfig& config, bool correct, const std::string& why,
             uint64_t attempted, uint64_t failed, uint64_t samples,
             double failed_ratio, double setup_s) const {
    for (const Metric& m : metrics_) {
      std::fprintf(stderr, "%-34s %16.4f %s\n", m.name.c_str(), m.value,
                   m.unit);
    }
    std::string escaped;
    for (char c : why) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    std::printf(
        "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
        "\"correct\": %s, \"why\": \"%s\", \"attempted\": %llu, "
        "\"failed\": %llu, \"samples\": %llu, \"failed_ratio\": %.17g, "
        "\"setup_s\": %.17g, \"metrics\": {",
        config.workload.c_str(), static_cast<unsigned long long>(config.seed),
        config.trace ? 1 : 0, correct ? "true" : "false", escaped.c_str(),
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed),
        static_cast<unsigned long long>(samples), failed_ratio, setup_s);
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

/// Per-layer numbers derived from the spans, plus the span dump.
void AddSpanMetrics(const std::vector<ClientResult>& results,
                    const std::string& path, Report* report) {
  std::vector<uint64_t> by_layer[static_cast<int>(Layer::kCount)];
  double total_ns[static_cast<int>(Layer::kCount)] = {};
  FILE* out = std::fopen(path.c_str(), "w");
  if (out) std::fprintf(out, "client,index,layer,start_ns,dur_ns,parent,txn\n");
  for (size_t c = 0; c < results.size(); ++c) {
    const auto& spans = results[c].tracer.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const int l = static_cast<int>(s.layer);
      by_layer[l].push_back(s.dur_ns);
      total_ns[l] += s.dur_ns;
      if (out) {
        std::fprintf(out, "%zu,%zu,%s,%llu,%u,%lld,%llu\n", c, i,
                     LayerName(s.layer),
                     static_cast<unsigned long long>(s.start_ns), s.dur_ns,
                     s.parent == Span::kNoParent ? -1LL
                                                 : static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.txn));
      }
    }
  }
  if (out) std::fclose(out);

  const auto L = [](Layer l) { return static_cast<int>(l); };
  const double txn_ns = total_ns[L(Layer::kTxn)];
  double child_ns = 0;
  for (int l = 1; l < L(Layer::kCount); ++l) child_ns += total_ns[l];

  report->AddLatency("txn.begin_us.", by_layer[L(Layer::kBegin)]);
  report->AddLatency("txn.write_us.", by_layer[L(Layer::kWrite)]);
  report->AddLatency("txn.commit_us.", by_layer[L(Layer::kCommit)]);
  report->Add("txn.commit_share", Ratio(total_ns[L(Layer::kCommit)], txn_ns),
              "ratio");
  report->AddLatency("graph.expand_us.", by_layer[L(Layer::kExpand)]);
  report->Add("graph.expand_share", Ratio(total_ns[L(Layer::kExpand)], txn_ns),
              "ratio");
  report->AddLatency("mvcc.read_us.", by_layer[L(Layer::kRead)]);
  report->AddLatency("index.lookup_us.", by_layer[L(Layer::kIndex)]);
  report->AddLatency("server.begin_rtt_us.", by_layer[L(Layer::kWireBegin)]);
  report->AddLatency("server.read_rtt_us.", by_layer[L(Layer::kWireRead)]);
  report->AddLatency("server.write_rtt_us.", by_layer[L(Layer::kWireWrite)]);
  report->AddLatency("server.commit_rtt_us.", by_layer[L(Layer::kWireCommit)]);
  // Self time of the root spans: the benchmark's own work between calls.
  report->Add("client.self_share", Ratio(txn_ns - child_ns, txn_ns), "ratio");
}

/// Stats()-derived per-layer numbers, as deltas over the window.
void AddStatsMetrics(const DatabaseStats& a, const DatabaseStats& b,
                     const GaugeSampler& gauges, uint64_t capacity,
                     uint64_t commits, double window_s, Report* report) {
  const double k = Ratio(1000.0, static_cast<double>(commits));
  const double n = static_cast<double>(commits);
  report->Add("txn.lock_waits_per_ktxn",
              static_cast<double>(b.locks.waits - a.locks.waits) * k, "1/ktxn");
  report->Add("txn.ssi_aborts_per_ktxn",
              static_cast<double>((b.ssi_aborts_pivot - a.ssi_aborts_pivot) +
                                  (b.ssi_aborts_doomed - a.ssi_aborts_doomed)) *
                  k,
              "1/ktxn");
  // gc_backlog_high_water is a lifetime mark: it describes the window only
  // when it rose during it; otherwise the sampled live backlog does.
  report->Add("mvcc.gc_backlog_peak",
              static_cast<double>(
                  b.gc_backlog_high_water > a.gc_backlog_high_water
                      ? b.gc_backlog_high_water
                      : gauges.gc_backlog_peak),
              "count");
  report->Add("mvcc.gc_reclaim_ratio",
              Ratio(static_cast<double>(b.gc_reclaimed - a.gc_reclaimed),
                    static_cast<double>(b.gc_appended - a.gc_appended)),
              "ratio");
  report->Add("mvcc.epoch_limbo_peak",
              static_cast<double>(gauges.epoch_limbo_peak), "count");
  const double hits = static_cast<double>(
      (b.cache.node_hits - a.cache.node_hits) +
      (b.cache.rel_hits - a.cache.rel_hits));
  const double misses = static_cast<double>(
      (b.cache.node_misses - a.cache.node_misses) +
      (b.cache.rel_misses - a.cache.rel_misses));
  report->Add("cache.hit_ratio", Ratio(hits, hits + misses), "ratio");
  report->Add("cache.loads_per_txn",
              Ratio(static_cast<double>(b.cache.loads - a.cache.loads), n),
              "1/txn");
  report->Add(
      "cache.evictions_per_txn",
      Ratio(static_cast<double>(b.cache.evictions - a.cache.evictions), n),
      "1/txn");
  report->Add("cache.resident_fill",
              gauges.resident.empty()
                  ? 0.0
                  : Ratio(Median(gauges.resident), static_cast<double>(capacity)),
              "ratio");
  report->Add("storage.wal_bytes_per_txn",
              Ratio(static_cast<double>(b.store.wal_next_lsn -
                                        a.store.wal_next_lsn),
                    n),
              "B/txn");
  report->Add("storage.checkpoints_per_s",
              Ratio(static_cast<double>(b.store.checkpoints -
                                        a.store.checkpoints),
                    window_s),
              "1/s");
  report->Add("storage.wal_segments_created",
              static_cast<double>(b.store.wal_segments_created -
                                  a.store.wal_segments_created),
              "count");
  report->Add("server.admission_shed",
              static_cast<double>(
                  (b.admission_shed_backlog - a.admission_shed_backlog) +
                  (b.admission_shed_sessions - a.admission_shed_sessions)),
              "count");
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kTxn: return "txn";
    case Layer::kBegin: return "txn.begin";
    case Layer::kWrite: return "txn.write";
    case Layer::kCommit: return "txn.commit";
    case Layer::kExpand: return "graph.expand";
    case Layer::kRead: return "mvcc.read";
    case Layer::kIndex: return "index.lookup";
    case Layer::kWireBegin: return "server.begin";
    case Layer::kWireRead: return "server.read";
    case Layer::kWireWrite: return "server.write";
    case Layer::kWireCommit: return "server.commit";
    case Layer::kCount: break;
  }
  return "?";
}

int ClientCount() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cores - 1, 1, 3);
}

int RunBenchmark(const RunConfig& config) {
  WorkloadConfig wc;
  wc.seed = config.seed;
  wc.dir = config.dir;
  const int clients = ClientCount();
  std::error_code ec;
  std::filesystem::create_directories(config.dir, ec);
  if (ec) {
    std::fprintf(stderr, "%s: %s\n", config.dir.c_str(), ec.message().c_str());
    return 2;
  }
  auto workload = MakeWorkload(config.workload, wc);
  if (!workload) {
    std::fprintf(stderr, "unknown workload %s\n", config.workload.c_str());
    return 2;
  }

  // --- set-up: open, generate, warm up ---------------------------------------
  const uint64_t setup_start = NowNs();
  Status s = workload->Setup();
  if (!s.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
    return 2;
  }
  const uint64_t warmup_start = NowNs();
  std::vector<std::unique_ptr<ClientDriver>> drivers;
  for (int i = 0; i < clients; ++i) {
    drivers.push_back(workload->NewClient(i));
    if (!drivers.back()) {
      std::fprintf(stderr, "client %d could not connect\n", i);
      return 2;
    }
  }
  std::atomic<int> phase{kUntraced};
  {
    std::vector<ClientResult> warm(drivers.size());
    RunClients(drivers, phase, workload->warmup_ops(), &warm);
    for (const auto& r : warm) {
      if (!r.first_error.empty()) {
        std::fprintf(stderr, "warm-up failed: %s\n", r.first_error.c_str());
        return 1;
      }
    }
  }
  const uint64_t setup_end = NowNs();
  const double setup_s = (setup_end - setup_start) / 1e9;
  std::fprintf(stderr, "setup %.3f s: open + generate %.3f s, warm-up %.3f s\n",
               setup_s, (warmup_start - setup_start) / 1e9,
               (setup_end - warmup_start) / 1e9);
  if (config.setup_only) {
    std::printf("{\"setup_s\": %.17g}\n", setup_s);
    return 0;
  }

  // --- measured window ---------------------------------------------------------
  neosi::GraphDatabase& db = workload->db();
  std::vector<ClientResult> results(drivers.size());
  for (ClientResult& r : results) {
    r.wall_clock = config.trace;
    r.samples_ns.reserve(
        static_cast<size_t>(kReservedCommitsPerSecond * config.seconds));
  }
  const DatabaseStats before = db.Stats();
  // Only the traced run samples gauges: Stats() walks the whole object
  // cache under its latches, which would add stalls to the untraced tail.
  std::optional<GaugeSampler> gauges;
  if (config.trace) gauges.emplace(db);
  double phase_s[2] = {0, 0};
  const uint64_t start = NowNs();
  const uint64_t cpu_start = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  const uint64_t switches_start = ContextSwitches();
  std::thread loops([&] { RunClients(drivers, phase, 0, &results); });
  const int phases = config.trace ? kTracePhases : 1;
  for (int p = 0; p < phases; ++p) {
    const int kind = config.trace ? p % 2 : kUntraced;
    const uint64_t phase_start = NowNs();
    phase.store(kind, std::memory_order_release);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(config.seconds / phases));
    phase_s[kind] += (NowNs() - phase_start) / 1e9;
  }
  phase.store(kStop, std::memory_order_release);
  loops.join();
  const double window_s = (NowNs() - start) / 1e9;
  const uint64_t process_cpu_ns = CpuNs(CLOCK_PROCESS_CPUTIME_ID) - cpu_start;
  const uint64_t switches = ContextSwitches() - switches_start;
  if (gauges) gauges->Stop();
  const DatabaseStats after = db.Stats();
  const double peak_rss_mb = PeakRssMiB();
  drivers.clear();  // closes wire sessions before the gate

  Outcomes total;
  std::vector<uint64_t> samples_ns;
  uint64_t commits_in[2] = {0, 0};
  std::string why;
  for (const auto& r : results) {
    total += r.out;
    samples_ns.insert(samples_ns.end(), r.samples_ns.begin(),
                      r.samples_ns.end());
    commits_in[0] += r.commits_in[0];
    commits_in[1] += r.commits_in[1];
    if (why.empty() && !r.first_error.empty()) {
      why = "non-retryable error: " + r.first_error;
    }
  }
  if (why.empty()) {
    const uint64_t check_start = NowNs();
    why = workload->Check();
    std::fprintf(stderr, "correctness gate %.3f s\n",
                 (NowNs() - check_start) / 1e9);
  }

  const uint64_t samples = samples_ns.size();
  const double untraced_tps = Ratio(commits_in[0], phase_s[0]);
  std::fprintf(stderr,
               "workload %s seed %llu clients %d window %.3f s: %llu commits, "
               "%llu aborts (%llu conflicts), %llu busy, %llu errors, "
               "%llu abandoned, failed_ratio %.6f, %llu latency samples, "
               "%.1f txn/s untraced, %.1f us process CPU and %.2f context "
               "switches per txn\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed), clients,
               window_s, static_cast<unsigned long long>(total.commits),
               static_cast<unsigned long long>(total.aborts),
               static_cast<unsigned long long>(total.conflicts),
               static_cast<unsigned long long>(total.busy),
               static_cast<unsigned long long>(total.errors),
               static_cast<unsigned long long>(total.abandoned),
               total.failed_ratio(), static_cast<unsigned long long>(samples),
               untraced_tps,
               Ratio(process_cpu_ns / 1e3, static_cast<double>(total.commits)),
               Ratio(static_cast<double>(switches),
                     static_cast<double>(total.commits)));

  Report report;
  if (!config.trace) {
    if (!Quantile(samples_ns, 0.99)) {
      std::fprintf(stderr, "too few committed transactions (%llu) for a p99\n",
                   static_cast<unsigned long long>(samples));
      return 2;
    }
    report.Add("cpu_us_per_txn",
               Ratio(process_cpu_ns / 1e3, static_cast<double>(total.commits)),
               "us");
    report.AddLatency("txn_cpu_", samples_ns, "_us");
    report.Add("attempts_per_txn", total.attempts_per_txn(), "ratio");
    report.Add("setup_s", setup_s, "s");
    report.Add("peak_rss_mb", peak_rss_mb, "MiB");
  } else {
    // Wall-clock figures of the untraced phases. They follow the host's
    // CPU steal, so they carry no bound (see README.md, "Noise").
    report.Add("txn_per_s", untraced_tps, "txn/s");
    report.AddLatency("txn_", samples_ns, "_us");
    AddSpanMetrics(results, config.dir + "/spans.csv", &report);
    AddStatsMetrics(before, after, *gauges, workload->cache_capacity(),
                    total.commits, window_s, &report);
    const double k = Ratio(1000.0, static_cast<double>(total.commits));
    report.Add("txn.conflict_aborts_per_ktxn",
               static_cast<double>(total.conflicts) * k, "1/ktxn");
    report.Add("failed_ratio", total.failed_ratio(), "ratio");
    report.Add("trace_overhead",
               1.0 - Ratio(Ratio(commits_in[1], phase_s[1]), untraced_tps),
               "ratio");
  }
  report.Print(config, why.empty(), why, total.operations(), total.errors,
               samples, total.failed_ratio(), setup_s);
  if (!why.empty()) {
    std::fprintf(stderr, "correctness check failed: %s\n", why.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
