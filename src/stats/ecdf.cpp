#include "stats/ecdf.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"

namespace varpred::stats {

double quantile_sorted(std::span<const double> sorted, double p) {
  VARPRED_CHECK_ARG(!sorted.empty(), "quantile of empty sample");
  VARPRED_CHECK_ARG(p >= 0.0 && p <= 1.0, "quantile p must be in [0, 1]");
  if (sorted.size() == 1) return sorted[0];
  const double h = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double quantile(std::span<const double> sample, double p) {
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  return quantile_sorted(sorted, p);
}

double median(std::span<const double> sample) { return quantile(sample, 0.5); }

double iqr(std::span<const double> sample) {
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  return quantile_sorted(sorted, 0.75) - quantile_sorted(sorted, 0.25);
}

}  // namespace varpred::stats
