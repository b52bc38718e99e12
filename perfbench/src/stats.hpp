#pragma once
// Summary statistics of the benchmark: nearest-rank percentiles (always an
// observed sample, never an interpolation) and the tail rule.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly above the reported tail.
inline constexpr std::size_t kTailBeyond = 10;
/// The tail never reaches past p99, however many samples a run has.
inline constexpr double kTailCapPercent = 99.0;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
[[nodiscard]] inline std::size_t nearestRank(double p, std::size_t n) {
  if (n == 0) return 0;
  const double exact = p / 100.0 * static_cast<double>(n);
  // Guard against p * n landing a hair above an integer in floating point.
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

struct TailRank {
  double percentile = 0.0;  // the percentile the reported value stands for
  std::size_t rank = 0;     // 1-based rank into the sorted samples
  bool enough = false;      // false: fewer than 2 * kTailBeyond samples
};

/// The highest nearest-rank percentile, capped at p99, that leaves at least
/// kTailBeyond samples above it: p90 at 100 samples, p99 at 1,000 or more,
/// p80 at 50. With fewer than 20 samples no such percentile reaches the
/// median; the median is reported instead and `enough` is false.
[[nodiscard]] inline TailRank tailRank(std::size_t n) {
  TailRank t;
  if (n < 2 * kTailBeyond) {
    t.rank = nearestRank(50.0, n);
    t.percentile = 50.0;
    return t;
  }
  t.enough = true;
  const std::size_t capped = nearestRank(kTailCapPercent, n);
  if (capped <= n - kTailBeyond) {
    t.rank = capped;
    t.percentile = kTailCapPercent;
  } else {
    t.rank = n - kTailBeyond;
    t.percentile = 100.0 * static_cast<double>(t.rank) / static_cast<double>(n);
  }
  return t;
}

/// Value at 1-based `rank` of the sorted samples (0 when there are none).
[[nodiscard]] inline double atRank(std::vector<double> values, std::size_t rank) {
  if (values.empty() || rank == 0) return 0.0;
  auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

[[nodiscard]] inline double percentile(std::vector<double> values, double p) {
  const std::size_t n = values.size();
  return atRank(std::move(values), nearestRank(p, n));
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

}  // namespace perfbench
