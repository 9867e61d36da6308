// Overlap coefficient between empirical distributions.
//
// The third accuracy score the paper family reports alongside KS and
// Wasserstein-1: the shared probability mass of two densities,
// integral min(f(x), g(x)) dx, estimated on a common histogram grid.
// 1 = the distributions coincide, 0 = disjoint supports. Unlike KS it
// rewards predicting *where* the mass is, and unlike W1 it is bounded,
// which makes it a convenient quality observable (no infinity sentinel).
#pragma once

#include <cstddef>
#include <span>

namespace varpred::stats {

/// Overlap coefficient of the empirical distributions of two samples,
/// estimated with `bins` equal-width bins over the pooled range. Returns a
/// value in [0, 1]; 1 when both samples are the same point mass, 0 when
/// either sample is empty or the supports are disjoint. Sorts a copy of
/// each (sort_samples) and calls overlap_coefficient_sorted. Throws
/// std::invalid_argument on a NaN or an infinity: neither has a bin.
double overlap_coefficient(std::span<const double> a,
                           std::span<const double> b, std::size_t bins = 64);

/// The overlap kernel: the same coefficient of two samples already in
/// ascending order (as sort_samples leaves them), which gives the pooled
/// range from the ends of the pair.
double overlap_coefficient_sorted(std::span<const double> a,
                                  std::span<const double> b,
                                  std::size_t bins = 64);

}  // namespace varpred::stats
