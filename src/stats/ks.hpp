// Kolmogorov-Smirnov statistics. The paper scores a predicted distribution
// against the measured one with the two-sample KS statistic: 0 = perfect
// match, 1 = disjoint supports.
#pragma once

#include <span>

namespace varpred::stats {

/// Two-sample KS statistic: sup_x |F1(x) - F2(x)|. Sorts a copy of each
/// sample (sort_samples) and calls ks_statistic_sorted. Throws
/// std::invalid_argument on an empty sample or a NaN.
double ks_statistic(std::span<const double> a, std::span<const double> b);

/// The KS kernel: the same statistic of two non-empty samples already in
/// ascending order (as sort_samples leaves them).
double ks_statistic_sorted(std::span<const double> a,
                           std::span<const double> b);

/// Kolmogorov distribution survival function Q(t) = P(D > t). Uses the
/// theta-function series for small t (where the textbook alternating series
/// suffers catastrophic cancellation and a tiny statistic would yield
/// p ≈ 0 instead of p ≈ 1) and the alternating tail series for large t.
/// Matches scipy.special.kolmogorov to ~1e-15 over the whole range.
double kolmogorov_survival(double t);

/// Asymptotic two-sample KS p-value (Kolmogorov distribution).
double ks_pvalue(double statistic, std::size_t n1, std::size_t n2);

}  // namespace varpred::stats
