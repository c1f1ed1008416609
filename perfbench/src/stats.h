#ifndef POPAN_PERFBENCH_STATS_H_
#define POPAN_PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace popan::perfbench {

/// Monotonic nanoseconds (steady_clock), the one clock every span,
/// latency and schedule in the benchmark is read from.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The q-quantile (0 <= q <= 1) of `values` by the nearest-rank rule;
/// 0 for an empty sample. Reorders `values`.
template <typename T>
double Quantile(std::vector<T>* values, double q) {
  if (values->empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values->size())));
  size_t index = rank == 0 ? 0 : rank - 1;
  index = std::min(index, values->size() - 1);
  std::nth_element(values->begin(), values->begin() + index, values->end());
  return static_cast<double>((*values)[index]);
}

/// Median of a small sample (mean of the middle pair when even).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Mean of the middle half of `values` (the interquartile mean): as
/// robust as the median to a few wild values, but it moves smoothly when
/// the share of slow and fast stretches in a sample shifts.
inline double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t lo = values.size() / 4;
  size_t hi = values.size() - lo;
  double sum = 0.0;
  for (size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

/// a / b, or 0 when b is 0 (a per-unit rate over an empty denominator).
inline double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace popan::perfbench

#endif  // POPAN_PERFBENCH_STATS_H_
