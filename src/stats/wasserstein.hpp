// Earth-mover (1-Wasserstein) distance between empirical distributions.
//
// Extension to the paper's evaluation: the KS statistic is insensitive to
// *where* mass is misplaced; W1 weights displacement by distance, which is
// often closer to the cost a practitioner cares about (how far off are the
// predicted runtimes, not just whether the CDFs cross). The extension bench
// reports both scores side by side.
#pragma once

#include <span>

namespace varpred::stats {

/// W1 between the empirical distributions of two samples:
/// integral |F1(x) - F2(x)| dx, computed exactly from the sorted samples.
/// Sorts a copy of each (sort_samples) and calls wasserstein1_sorted.
/// Throws std::invalid_argument on an empty sample, a NaN or an infinity.
double wasserstein1(std::span<const double> a, std::span<const double> b);

/// The W1 kernel: the same distance of two non-empty samples already in
/// ascending order (as sort_samples leaves them). Throws
/// std::invalid_argument when either holds -inf or +inf.
double wasserstein1_sorted(std::span<const double> a,
                           std::span<const double> b);

/// W1 normalized by the pooled *population* standard deviation (scale-free
/// variant, comparable across benchmarks; population convention per
/// DESIGN.md, consistent with Moments::stddev). Returns 0 for two identical
/// point masses and +infinity for distinct point masses (zero pooled spread
/// but nonzero transport cost).
double wasserstein1_normalized(std::span<const double> a,
                               std::span<const double> b);

/// Divides a W1 distance by the pooled population standard deviation
/// sqrt((var_a + var_b) / 2), with wasserstein1_normalized's rules for zero
/// spread. For callers that sort their samples in place: they must take the
/// variances first, because a sum over sorted data rounds differently.
double normalize_wasserstein1(double w1, double var_a, double var_b);

}  // namespace varpred::stats
