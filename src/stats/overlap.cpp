#include "stats/overlap.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "stats/sort.hpp"

namespace varpred::stats {

double overlap_coefficient(std::span<const double> a,
                           std::span<const double> b, std::size_t bins) {
  std::vector<double> sa(a.begin(), a.end());
  std::vector<double> sb(b.begin(), b.end());
  sort_samples(sa);
  sort_samples(sb);
  return overlap_coefficient_sorted(sa, sb, bins);
}

double overlap_coefficient_sorted(std::span<const double> a,
                                  std::span<const double> b,
                                  std::size_t bins) {
  VARPRED_CHECK_ARG(bins > 0, "overlap_coefficient needs at least one bin");
  if (a.empty() || b.empty()) return 0.0;

  const double lo = std::min(a.front(), b.front());
  const double hi = std::max(a.back(), b.back());
  // An infinite range has no equal-width bins: (inf - lo) / width would be
  // NaN, and casting that to a bin index is undefined.
  VARPRED_CHECK_ARG(std::isfinite(lo) && std::isfinite(hi),
                    "overlap_coefficient needs finite samples");
  // Degenerate pooled range: every value in both samples is identical, so
  // the two empirical distributions are the same point mass.
  if (!(hi > lo)) return 1.0;

  const double width = (hi - lo) / static_cast<double>(bins);
  std::vector<double> pa(bins, 0.0);
  std::vector<double> pb(bins, 0.0);
  const auto bin_of = [&](double x) {
    const auto raw = static_cast<std::size_t>((x - lo) / width);
    return std::min(raw, bins - 1);  // hi lands in the last bin
  };
  // Each bin adds the same 1/n once per member, so the sums do not depend
  // on the order the members come in.
  for (const double x : a) pa[bin_of(x)] += 1.0 / static_cast<double>(a.size());
  for (const double x : b) pb[bin_of(x)] += 1.0 / static_cast<double>(b.size());

  double overlap = 0.0;
  for (std::size_t i = 0; i < bins; ++i) {
    overlap += std::min(pa[i], pb[i]);
  }
  return overlap;
}

}  // namespace varpred::stats
