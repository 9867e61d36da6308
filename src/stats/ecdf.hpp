// Quantiles of an empirical sample.
#pragma once

#include <span>

namespace varpred::stats {

/// Linear-interpolation quantile (R type 7 / NumPy default), p in [0, 1].
double quantile(std::span<const double> sample, double p);

/// Quantile on an already-sorted sample.
double quantile_sorted(std::span<const double> sorted, double p);

/// Median shortcut.
double median(std::span<const double> sample);

/// Interquartile range (q75 - q25).
double iqr(std::span<const double> sample);

}  // namespace varpred::stats
