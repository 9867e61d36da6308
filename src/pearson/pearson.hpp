// The Pearson distribution system (MATLAB `pearsrnd` equivalent).
//
// Given the first four moments (mean, stddev, skewness, non-excess kurtosis)
// this module classifies the matching Pearson curve family (types 0-VII) and
// draws random variates from it. The paper's best-performing distribution
// representation ("PearsonRnd") predicts the four moments of the relative
// runtime and reconstructs the distribution by sampling the Pearson system.
//
// Classification follows the classical discriminant on
//   beta1 = skewness^2, beta2 = kurtosis:
//     c0 = 4*beta2 - 3*beta1
//     c1 = skew * (beta2 + 3)
//     c2 = 2*beta2 - 3*beta1 - 6
//     kappa = c1^2 / (4 c0 c2)
// Every sampler is constructed in a raw shape-true parameterization and then
// standardized analytically (exact component mean/variance), so the returned
// variates match the requested mean/stddev to machine precision and the
// requested skewness/kurtosis up to sampling error.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "stats/moments.hpp"

namespace varpred::pearson {

/// Pearson family indices (0 = normal, I..VII as in the literature).
enum class PearsonType {
  kNormal = 0,
  kTypeI = 1,    ///< (shifted, scaled) beta
  kTypeII = 2,   ///< symmetric beta
  kTypeIII = 3,  ///< (shifted, scaled) gamma
  kTypeIV = 4,   ///< no closed form; sampled via the arctan substitution
  kTypeV = 5,    ///< (shifted) inverse gamma
  kTypeVI = 6,   ///< (shifted, scaled) beta prime / F
  kTypeVII = 7,  ///< scaled Student-t
};

std::string to_string(PearsonType type);

/// Moment validity: a distribution with skewness g and kurtosis k exists only
/// if k > g^2 + 1 (the boundary is the two-point distribution).
bool moments_feasible(double skewness, double kurtosis);

/// Projects (possibly predicted, possibly infeasible) moments into the
/// feasible region: enforces stddev >= 0 and kurtosis >= skew^2 + 1 + margin.
/// Used by the prediction pipeline before reconstruction, since regressors
/// can emit infeasible moment combinations.
stats::Moments sanitize_moments(const stats::Moments& m,
                                double margin = 0.05);

/// Classifies the Pearson type for the given skewness/kurtosis.
/// Throws std::invalid_argument for infeasible moments.
PearsonType classify(double skewness, double kurtosis);

/// A prepared sampler for a specific moment target. Construction does the
/// classification and parameter fitting once; sample() is then cheap.
class PearsonSampler {
 public:
  /// Throws std::invalid_argument for infeasible moments or stddev < 0.
  explicit PearsonSampler(const stats::Moments& target);

  PearsonType type() const { return type_; }
  const stats::Moments& target() const { return target_; }

  /// Draws one variate.
  double sample(Rng& rng) const;

  /// Draws n variates: the same values, and the same RNG use, as n calls of
  /// sample(). Type IV draws them through the bulk table draw
  /// (stats/inverse_cdf.hpp).
  std::vector<double> sample_many(Rng& rng, std::size_t n) const;

 private:
  // Standardized (zero-mean unit-variance) draw for the fitted family.
  double sample_standardized(Rng& rng) const;
  // Type IV: the standardized variate at table angle `theta`.
  double iv_standardized(double theta) const;

  stats::Moments target_;
  PearsonType type_ = PearsonType::kNormal;

  // Family parameters (meaning depends on type_; see pearson.cpp).
  double p_a_ = 0.0;
  double p_b_ = 0.0;
  double p_c_ = 0.0;
  double p_d_ = 0.0;
  // Exact mean/stddev of the raw family draw, used to standardize.
  double raw_mean_ = 0.0;
  double raw_sd_ = 1.0;
  // Orientation: -1 when the family was fitted to the mirrored moments.
  double flip_ = 1.0;

  // Type IV inverse-CDF table: iv_theta_ views the process-wide theta grid
  // over (-pi/2, pi/2) (see pearson.cpp), iv_cdf_ is this sampler's CDF on it.
  std::span<const double> iv_theta_;
  std::vector<double> iv_cdf_;
};

/// One-shot convenience: n draws matching `target`.
std::vector<double> pearsrnd(const stats::Moments& target, std::size_t n,
                             Rng& rng);

}  // namespace varpred::pearson
