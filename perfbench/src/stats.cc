#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::optional<uint64_t> Quantile(std::vector<uint64_t>& samples, double q) {
  const uint64_t n = samples.size();
  if (n == 0 || q <= 0 || q > 1) return std::nullopt;
  // Nearest rank, 1-based; the epsilon keeps 0.99 * 1000 at rank 990.
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<uint64_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Outcomes::failed_ratio() const {
  const uint64_t a = attempted();
  return a == 0 ? 0.0 : static_cast<double>(aborts + busy + errors) / a;
}

double Outcomes::attempts_per_txn() const {
  return commits == 0 ? 0.0 : static_cast<double>(attempted()) / commits;
}

Outcomes& Outcomes::operator+=(const Outcomes& o) {
  commits += o.commits;
  aborts += o.aborts;
  conflicts += o.conflicts;
  busy += o.busy;
  errors += o.errors;
  abandoned += o.abandoned;
  return *this;
}

std::string CheckAgeLedger(const std::vector<int64_t>& initial,
                           const std::vector<uint64_t>& acked,
                           const std::vector<int64_t>& final_ages) {
  if (initial.size() != acked.size() || initial.size() != final_ages.size()) {
    return "ledger size mismatch: " + std::to_string(initial.size()) +
           " people, " + std::to_string(acked.size()) + " ledger rows, " +
           std::to_string(final_ages.size()) + " final ages";
  }
  for (size_t i = 0; i < initial.size(); ++i) {
    const int64_t expected = initial[i] + static_cast<int64_t>(acked[i]);
    if (final_ages[i] != expected) {
      return "person " + std::to_string(i) + ": age " +
             std::to_string(final_ages[i]) + ", expected " +
             std::to_string(initial[i]) + " + " + std::to_string(acked[i]) +
             " acknowledged increments";
    }
  }
  return "";
}

}  // namespace perfbench
