// Central moments and moment-based summaries.
//
// Conventions match MATLAB / the paper: `skewness` is the third standardized
// central moment g1 = m3 / m2^1.5, and `kurtosis` is the *non-excess* fourth
// standardized moment g2 = m4 / m2^2 (normal distribution -> 3.0), because
// the Pearson system and `pearsrnd` are parameterized that way.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace varpred::stats {

/// First four moment summaries of a sample.
struct Moments {
  double mean = 0.0;
  double stddev = 0.0;    ///< population-style sqrt(m2) (biased, like MATLAB moment())
  double skewness = 0.0;  ///< g1 = m3 / m2^1.5; 0 for symmetric samples
  double kurtosis = 3.0;  ///< g2 = m4 / m2^2; 3 for a normal distribution
  std::size_t count = 0;

  /// Feature-vector form [mean, stddev, skewness, kurtosis].
  std::vector<double> to_vector() const {
    return {mean, stddev, skewness, kurtosis};
  }

  static Moments from_vector(std::span<const double> v);
};

/// Computes moments in one pass (numerically-stable updating formulas).
/// Degenerate samples (n < 2 or zero variance) report stddev 0, skewness 0,
/// kurtosis 3 so downstream reconstruction degrades to a point mass/normal.
/// Large samples dispatch to compute_moments_parallel.
Moments compute_moments(std::span<const double> sample);

/// Moments via a chunked parallel_reduce over the global pool: per-chunk
/// MomentAccumulators merged in chunk order. Chunk boundaries depend only on
/// the sample size, so the result is independent of the worker count (it may
/// differ from the serial path by floating-point merge error only).
Moments compute_moments_parallel(std::span<const double> sample);

/// The per-count factors of one Welford step, taking a sample of n1 values
/// to n = n1 + 1. Accumulators stepped at the same count (the metrics of a
/// profile, one run at a time) share one set.
struct WelfordCounts {
  double n1;
  double n;
  double poly;       ///< n * n - 3.0 * n + 3.0
  double n_minus_2;  ///< n - 2.0

  static WelfordCounts after(double n1) {
    const double n = n1 + 1.0;
    return {n1, n, n * n - 3.0 * n + 3.0, n - 2.0};
  }
};

/// The one Welford step through the 4th moment: folds `x` into the raw
/// state (mean and the 2nd-4th central moment sums). MomentAccumulator::add,
/// the lane-parallel kernel and the profile builder all run it, so every
/// accumulation in the library rounds the same way.
inline void welford_step(const WelfordCounts& c, double x, double& mean,
                         double& m2, double& m3, double& m4) {
  const double delta = x - mean;
  const double delta_n = delta / c.n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * c.n1;
  mean += delta_n;
  m4 += term1 * delta_n2 * c.poly + 6.0 * delta_n2 * m2 - 4.0 * delta_n * m3;
  m3 += term1 * delta_n * c.n_minus_2 - 3.0 * delta_n * m2;
  m2 += term1;
}

/// Streaming accumulator (Welford extended through the 4th moment).
/// merge() makes it usable from parallel reductions.
class MomentAccumulator {
 public:
  void add(double x);
  void merge(const MomentAccumulator& other);

  /// Rebuilds an accumulator from its raw state (count, mean, and the 2nd-4th
  /// central moment sums). Used by the lane-parallel Welford kernel
  /// (stats/welford_simd.hpp) to merge independently-accumulated lanes
  /// through the exact pairwise-merge formulas above, and by the profile
  /// builder to read moments off its per-metric arrays.
  static MomentAccumulator from_raw(std::size_t n, double mean, double m2,
                                    double m3, double m4);

  std::size_t count() const { return n_; }
  Moments moments() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double m3_ = 0.0;
  double m4_ = 0.0;
};

/// Mean of a sample (0 for empty).
double mean(std::span<const double> sample);

/// Unbiased sample variance (n-1 denominator); 0 for n < 2.
double sample_variance(std::span<const double> sample);

/// Population variance (n denominator, the MATLAB-style convention the rest
/// of the stats layer reports via Moments::stddev); 0 for n < 2.
double population_variance(std::span<const double> sample);

/// Rescales a sample to relative time: x_i / mean(x). The paper predicts
/// distributions of relative time so outputs share a scale across
/// applications. Throws if the mean is not strictly positive.
std::vector<double> to_relative(std::span<const double> sample);

}  // namespace varpred::stats
