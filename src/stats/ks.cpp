#include "stats/ks.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "stats/sort.hpp"

namespace varpred::stats {

double ks_statistic(std::span<const double> a, std::span<const double> b) {
  std::vector<double> sa(a.begin(), a.end());
  std::vector<double> sb(b.begin(), b.end());
  sort_samples(sa);
  sort_samples(sb);
  return ks_statistic_sorted(sa, sb);
}

double ks_statistic_sorted(std::span<const double> a,
                           std::span<const double> b) {
  VARPRED_CHECK_ARG(!a.empty() && !b.empty(), "KS needs non-empty samples");
  const std::size_t na = a.size();
  const std::size_t nb = b.size();
  const double dna = static_cast<double>(na);
  const double dnb = static_cast<double>(nb);
  const auto gap = [&](std::size_t ia, std::size_t ib) {
    return std::fabs(static_cast<double>(ia) / dna -
                     static_cast<double>(ib) / dnb);
  };
  // Walk the merged order one element per step, with no branch on which
  // side the element comes from. Both ECDFs are read after the last copy
  // of each value, where the next merged value differs; the heads are
  // compared by index, so a real +inf is never mistaken for an end.
  std::size_t ia = 0;
  std::size_t ib = 0;
  double x = 0.0;
  bool tie = false;
  double d = 0.0;
  while (ia < na && ib < nb) {
    const bool from_a = a[ia] <= b[ib];
    x = from_a ? a[ia] : b[ib];
    ia += from_a ? 1 : 0;
    ib += from_a ? 0 : 1;
    tie = (ia < na && a[ia] == x) || (ib < nb && b[ib] == x);
    if (!tie) d = std::max(d, gap(ia, ib));
  }
  // One side is used up. Its ECDF stays 1 from here, so |F1 - F2| only
  // falls, except that the last value may still have copies on the other
  // side.
  if (tie) {
    while (ia < na && a[ia] == x) ++ia;
    while (ib < nb && b[ib] == x) ++ib;
    d = std::max(d, gap(ia, ib));
  }
  return d;
}

double kolmogorov_survival(double t) {
  if (t <= 0.0) return 1.0;
  constexpr double kPi = 3.14159265358979323846;
  if (t < 1.18) {
    // Theta-function form: Q(t) = 1 - sqrt(2*pi)/t * sum exp(-(2k-1)^2
    // pi^2 / (8 t^2)). The alternating tail series degenerates here — for
    // t -> 0 its terms stay at +-2 and the partial sum oscillates instead
    // of converging to 1. This series' terms underflow harmlessly instead.
    const double x = kPi * kPi / (8.0 * t * t);
    double sum = 0.0;
    for (int k = 1; k <= 20; ++k) {
      const double term = std::exp(-static_cast<double>(2 * k - 1) *
                                   static_cast<double>(2 * k - 1) * x);
      sum += term;
      if (term < 1e-18 * sum || term == 0.0) break;
    }
    const double cdf = std::sqrt(2.0 * kPi) / t * sum;
    return std::clamp(1.0 - cdf, 0.0, 1.0);
  }
  // Alternating tail series, rapidly convergent for t >= 1.18.
  double sum = 0.0;
  double sign = 1.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = 2.0 * std::exp(-2.0 * static_cast<double>(k) *
                                       static_cast<double>(k) * t * t);
    sum += sign * term;
    sign = -sign;
    if (term < 1e-15) break;
  }
  return std::clamp(sum, 0.0, 1.0);
}

double ks_pvalue(double statistic, std::size_t n1, std::size_t n2) {
  VARPRED_CHECK_ARG(n1 > 0 && n2 > 0, "KS p-value needs positive sizes");
  const double n = static_cast<double>(n1) * static_cast<double>(n2) /
                   static_cast<double>(n1 + n2);
  const double t = (std::sqrt(n) + 0.12 + 0.11 / std::sqrt(n)) * statistic;
  return kolmogorov_survival(t);
}

}  // namespace varpred::stats
