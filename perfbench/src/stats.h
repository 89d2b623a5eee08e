// Pure helpers of the benchmark: percentiles, outcome accounting and the
// correctness gates. No engine calls here, so perfbench_selftest can feed
// them fabricated inputs.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond its rank; below that it is one or two outliers, not a
/// percentile.
inline constexpr uint64_t kMinSamplesBeyond = 10;

/// Nearest-rank q-quantile (0 < q <= 1) of `samples`, or nullopt when the
/// sample is empty or fewer than kMinSamplesBeyond samples lie beyond the
/// rank. Reorders `samples`.
std::optional<uint64_t> Quantile(std::vector<uint64_t>& samples, double q);

/// Median of a non-empty list of doubles (mean of the middle two for an
/// even count).
double Median(std::vector<double> values);

/// Outcome counts of one client, or summed over all clients. A logical
/// operation is retried on retryable statuses until it commits; every try
/// is one attempted transaction.
struct Outcomes {
  uint64_t commits = 0;
  uint64_t aborts = 0;      ///< Retryable aborts other than Busy.
  uint64_t conflicts = 0;   ///< Of those: write conflicts and wait-die.
  uint64_t busy = 0;        ///< Admission-control Busy sheds.
  uint64_t errors = 0;      ///< Non-retryable errors (fail the run).
  uint64_t abandoned = 0;   ///< Operations dropped mid-retry at window end.

  uint64_t attempted() const { return commits + aborts + busy + errors; }
  /// (retryable aborts + errors + Busy sheds) / attempted transactions.
  double failed_ratio() const;
  /// Attempted transactions per committed one (>= 1).
  double attempts_per_txn() const;
  /// Logical operations that either committed or failed for good.
  uint64_t operations() const { return commits + errors; }

  Outcomes& operator+=(const Outcomes& o);
};

/// Lost-update gate of the social workloads: every person's final age must
/// equal its generated age plus the increments clients saw commit. Returns
/// an empty string on success, else a description of the first mismatch.
std::string CheckAgeLedger(const std::vector<int64_t>& initial,
                           const std::vector<uint64_t>& acked,
                           const std::vector<int64_t>& final_ages);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
