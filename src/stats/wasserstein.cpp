#include "stats/wasserstein.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "stats/moments.hpp"
#include "stats/sort.hpp"

namespace varpred::stats {

double wasserstein1(std::span<const double> a, std::span<const double> b) {
  std::vector<double> sa(a.begin(), a.end());
  std::vector<double> sb(b.begin(), b.end());
  sort_samples(sa);
  sort_samples(sb);
  return wasserstein1_sorted(sa, sb);
}

double wasserstein1_sorted(std::span<const double> sa,
                           std::span<const double> sb) {
  VARPRED_CHECK_ARG(!sa.empty() && !sb.empty(), "W1 needs non-empty samples");
  // An infinite support has no finite transport cost: the sweep would
  // multiply by inf - inf or 0 * inf and return NaN.
  VARPRED_CHECK_ARG(std::isfinite(std::min(sa.front(), sb.front())) &&
                        std::isfinite(std::max(sa.back(), sb.back())),
                    "W1 needs finite samples");
  // Sweep the merged support, accumulating |F1 - F2| * dx.
  const double na = static_cast<double>(sa.size());
  const double nb = static_cast<double>(sb.size());
  std::size_t ia = 0;
  std::size_t ib = 0;
  double prev_x = std::min(sa[0], sb[0]);
  double total = 0.0;
  while (ia < sa.size() || ib < sb.size()) {
    double x;
    if (ib >= sb.size() || (ia < sa.size() && sa[ia] <= sb[ib])) {
      x = sa[ia];
    } else {
      x = sb[ib];
    }
    const double fa = static_cast<double>(ia) / na;
    const double fb = static_cast<double>(ib) / nb;
    total += std::fabs(fa - fb) * (x - prev_x);
    prev_x = x;
    while (ia < sa.size() && sa[ia] <= x) ++ia;
    while (ib < sb.size() && sb[ib] <= x) ++ib;
  }
  return total;
}

double wasserstein1_normalized(std::span<const double> a,
                               std::span<const double> b) {
  // Population (n-denominator) variances, matching the MATLAB convention the
  // rest of the stats layer uses (see Moments::stddev in moments.hpp).
  return normalize_wasserstein1(wasserstein1(a, b), population_variance(a),
                                population_variance(b));
}

double normalize_wasserstein1(double w1, double var_a, double var_b) {
  const double pooled = std::sqrt(0.5 * (var_a + var_b));
  // Two distinct point masses have zero pooled spread but nonzero transport
  // cost: the scale-free distance is genuinely unbounded, so report infinity
  // rather than a magic finite sentinel.
  if (pooled <= 0.0) {
    return w1 == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return w1 / pooled;
}

}  // namespace varpred::stats
