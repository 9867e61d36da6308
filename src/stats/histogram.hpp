// Histograms: the first of the paper's three distribution representations
// (a discretized PDF over relative time). Supports density normalization,
// sampling (piecewise-uniform inverse CDF), and automatic binning.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace varpred::stats {

/// Fixed-range equal-width histogram. Out-of-range values are clamped into
/// the edge bins so encode/reconstruct round-trips never drop mass.
class Histogram {
 public:
  /// Creates an empty histogram over [lo, hi) with `bins` bins.
  Histogram(double lo, double hi, std::size_t bins);

  /// Builds and fills in one step.
  static Histogram fit(std::span<const double> sample, double lo, double hi,
                       std::size_t bins);

  void add(double x);
  void add_all(std::span<const double> sample);

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t bin_count() const { return counts_.size(); }
  double bin_width() const { return width_; }
  std::size_t total() const { return total_; }

  /// Bin index for a value (clamped).
  std::size_t bin_of(double x) const;

  /// Center of bin i.
  double bin_center(std::size_t i) const;

  const std::vector<double>& counts() const { return counts_; }

  /// Probability mass per bin (sums to 1; all-zero if empty).
  std::vector<double> probabilities() const;

  /// Density per bin (mass / width).
  std::vector<double> densities() const;

  /// Draws one value: choose a bin by mass, then uniform within the bin.
  /// `probs` must be non-negative and not all zero.
  static double sample_from_probs(std::span<const double> probs, double lo,
                                  double hi, Rng& rng);

  /// Draws n values from a bin-probability vector.
  static std::vector<double> sample_many_from_probs(
      std::span<const double> probs, double lo, double hi, std::size_t n,
      Rng& rng);

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<double> counts_;
  std::size_t total_ = 0;
};

}  // namespace varpred::stats
