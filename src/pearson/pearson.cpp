#include "pearson/pearson.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.hpp"
#include "rngdist/samplers.hpp"
#include "stats/inverse_cdf.hpp"

namespace varpred::pearson {
namespace {

constexpr double kSymmetryTol = 1e-8;
constexpr double kBoundaryTol = 1e-8;

struct Coeffs {
  // Unnormalized Pearson quadratic coefficients.
  double c0 = 0.0;
  double c1 = 0.0;
  double c2 = 0.0;
  // Normalized by D = 10*beta2 - 12*beta1 - 18 (the ODE form).
  double c0n = 0.0;
  double c1n = 0.0;
  double c2n = 0.0;
  double denom = 0.0;
};

Coeffs pearson_coeffs(double skew, double kurt) {
  const double beta1 = skew * skew;
  const double beta2 = kurt;
  Coeffs c;
  c.c0 = 4.0 * beta2 - 3.0 * beta1;
  c.c1 = skew * (beta2 + 3.0);
  c.c2 = 2.0 * beta2 - 3.0 * beta1 - 6.0;
  c.denom = 10.0 * beta2 - 12.0 * beta1 - 18.0;
  if (std::fabs(c.denom) > 1e-10) {
    c.c0n = c.c0 / c.denom;
    c.c1n = c.c1 / c.denom;
    c.c2n = c.c2 / c.denom;
  }
  return c;
}

// Analytic skewness of Beta(alpha, beta).
double beta_skew(double alpha, double beta) {
  return 2.0 * (beta - alpha) * std::sqrt(alpha + beta + 1.0) /
         ((alpha + beta + 2.0) * std::sqrt(alpha * beta));
}

// The type IV inverse-CDF grid: kIvGrid equal steps in
// theta = arctan((x - lambda) / a) over (-pi/2, pi/2), kept 1e-7 off either
// end. theta and log(cos theta) depend on nothing but these constants, so
// one table, built on first use (a thread-safe static), serves every sampler
// in the process.
constexpr std::size_t kIvGrid = 4096;

struct IvGrid {
  std::array<double, kIvGrid + 1> theta;
  std::array<double, kIvGrid + 1> log_cos;
};

// A named function rather than a lambda, so it is not constexpr: GCC would
// otherwise fold the table at compile time, where cos and log round
// correctly and so differ from the run-time libm in the last bit at a few
// grid points, and every sample drawn there would change.
IvGrid make_iv_grid() {
  constexpr double kEdge = 1e-7;
  const double lo = -M_PI_2 + kEdge;
  const double hi = M_PI_2 - kEdge;
  IvGrid grid{};
  for (std::size_t i = 0; i <= kIvGrid; ++i) {
    const double t = lo + (hi - lo) * static_cast<double>(i) /
                              static_cast<double>(kIvGrid);
    grid.theta[i] = t;
    grid.log_cos[i] = std::log(std::cos(t));
  }
  return grid;
}

const IvGrid& iv_grid() {
  static const IvGrid grid = make_iv_grid();
  return grid;
}

}  // namespace

std::string to_string(PearsonType type) {
  switch (type) {
    case PearsonType::kNormal:
      return "0 (normal)";
    case PearsonType::kTypeI:
      return "I (beta)";
    case PearsonType::kTypeII:
      return "II (symmetric beta)";
    case PearsonType::kTypeIII:
      return "III (gamma)";
    case PearsonType::kTypeIV:
      return "IV";
    case PearsonType::kTypeV:
      return "V (inverse gamma)";
    case PearsonType::kTypeVI:
      return "VI (beta prime)";
    case PearsonType::kTypeVII:
      return "VII (Student t)";
  }
  VARPRED_CHECK_ARG(false, "unknown Pearson type");
}

bool moments_feasible(double skewness, double kurtosis) {
  return std::isfinite(skewness) && std::isfinite(kurtosis) &&
         kurtosis > skewness * skewness + 1.0;
}

stats::Moments sanitize_moments(const stats::Moments& m, double margin) {
  stats::Moments out = m;
  if (!std::isfinite(out.mean)) out.mean = 1.0;
  if (!std::isfinite(out.stddev) || out.stddev < 0.0) out.stddev = 0.0;
  if (!std::isfinite(out.skewness)) out.skewness = 0.0;
  out.skewness = std::clamp(out.skewness, -8.0, 8.0);
  if (!std::isfinite(out.kurtosis)) out.kurtosis = 3.0;
  const double floor = out.skewness * out.skewness + 1.0 + margin;
  out.kurtosis = std::clamp(out.kurtosis, floor, 100.0);
  return out;
}

PearsonType classify(double skew, double kurt) {
  VARPRED_CHECK_ARG(moments_feasible(skew, kurt),
                    "infeasible moments: need kurtosis > skewness^2 + 1");
  if (std::fabs(skew) < kSymmetryTol) {
    if (std::fabs(kurt - 3.0) < kBoundaryTol) return PearsonType::kNormal;
    return kurt < 3.0 ? PearsonType::kTypeII : PearsonType::kTypeVII;
  }
  const Coeffs c = pearson_coeffs(skew, kurt);
  if (std::fabs(c.c2) < kBoundaryTol * (1.0 + kurt)) {
    return PearsonType::kTypeIII;
  }
  // c0 > 0 always holds in the feasible region, so the discriminant sign is
  // the sign of c2 when negative.
  const double disc = c.c1 * c.c1 / (4.0 * c.c0 * c.c2);
  if (disc < 0.0) return PearsonType::kTypeI;
  if (disc < 1.0 - 1e-10) return PearsonType::kTypeIV;
  if (disc <= 1.0 + 1e-10) return PearsonType::kTypeV;
  return PearsonType::kTypeVI;
}

PearsonSampler::PearsonSampler(const stats::Moments& target)
    : target_(target) {
  VARPRED_CHECK_ARG(std::isfinite(target.mean), "mean must be finite");
  VARPRED_CHECK_ARG(std::isfinite(target.stddev) && target.stddev >= 0.0,
                    "stddev must be finite and >= 0");
  if (target.stddev == 0.0) {
    // Point mass; represented as a degenerate normal.
    type_ = PearsonType::kNormal;
    return;
  }

  double skew = target.skewness;
  double kurt = target.kurtosis;
  // Nudge off the measure-zero surface where the ODE normalization blows up.
  const double beta1 = skew * skew;
  if (std::fabs(10.0 * kurt - 12.0 * beta1 - 18.0) < 1e-9) kurt += 1e-6;

  type_ = classify(skew, kurt);

  // Fit the mirrored problem when the family is easier to express with
  // positive orientation; sample_standardized() flips back.
  auto orient = [&](double family_skew) {
    if (family_skew * skew < 0.0) flip_ = -1.0;
  };

  switch (type_) {
    case PearsonType::kNormal:
      break;

    case PearsonType::kTypeII: {
      // Beta(m, m): non-excess kurtosis 3 - 6/(2m+3).
      const double m = 3.0 * (kurt - 1.0) / (2.0 * (3.0 - kurt));
      VARPRED_CHECK(m > 0.0, "type II shape must be positive");
      p_a_ = m;
      raw_mean_ = 0.5;
      raw_sd_ = std::sqrt(1.0 / (4.0 * (2.0 * m + 1.0)));
      break;
    }

    case PearsonType::kTypeVII: {
      // Student-t: non-excess kurtosis 3 + 6/(nu-4).
      const double nu = 4.0 + 6.0 / (kurt - 3.0);
      p_a_ = nu;
      raw_mean_ = 0.0;
      raw_sd_ = std::sqrt(nu / (nu - 2.0));
      break;
    }

    case PearsonType::kTypeIII: {
      // Gamma(k): skewness 2/sqrt(k).
      const double k = 4.0 / (skew * skew);
      p_a_ = k;
      raw_mean_ = k;
      raw_sd_ = std::sqrt(k);
      orient(2.0 / std::sqrt(k));  // gamma skew is positive
      break;
    }

    case PearsonType::kTypeI: {
      const Coeffs c = pearson_coeffs(skew, kurt);
      VARPRED_CHECK(std::fabs(c.denom) > 1e-10, "type I degenerate denom");
      const double disc = c.c1n * c.c1n - 4.0 * c.c0n * c.c2n;
      VARPRED_CHECK(disc >= 0.0, "type I roots must be real");
      const double sq = std::sqrt(disc);
      double a1 = (-c.c1n - sq) / (2.0 * c.c2n);
      double a2 = (-c.c1n + sq) / (2.0 * c.c2n);
      if (a1 > a2) std::swap(a1, a2);
      const double e1 = (c.c1n + a1) / (c.c2n * (a2 - a1));
      const double e2 = -(c.c1n + a2) / (c.c2n * (a2 - a1));
      const double alpha = e1 + 1.0;
      const double beta = e2 + 1.0;
      VARPRED_CHECK(alpha > 0.0 && beta > 0.0,
                    "type I beta exponents must be positive");
      p_a_ = alpha;
      p_b_ = beta;
      p_c_ = a1;
      p_d_ = a2;
      const double mu_b = alpha / (alpha + beta);
      const double var_b = alpha * beta /
                           ((alpha + beta) * (alpha + beta) *
                            (alpha + beta + 1.0));
      raw_mean_ = a1 + (a2 - a1) * mu_b;
      raw_sd_ = (a2 - a1) * std::sqrt(var_b);
      orient(beta_skew(alpha, beta));
      break;
    }

    case PearsonType::kTypeIV: {
      const double b1 = skew * skew;
      const double r = 6.0 * (kurt - b1 - 1.0) / (2.0 * kurt - 3.0 * b1 - 6.0);
      const double s = 16.0 * (r - 1.0) - b1 * (r - 2.0) * (r - 2.0);
      VARPRED_CHECK(r > 2.0 && s > 0.0, "type IV parameters out of range");
      const double m = 1.0 + 0.5 * r;
      const double a = 0.25 * std::sqrt(s);
      const double nu = -r * (r - 2.0) * skew / std::sqrt(s);
      const double lambda = -0.25 * (r - 2.0) * skew;
      p_a_ = m;
      p_b_ = nu;
      p_c_ = a;
      p_d_ = lambda;
      raw_mean_ = 0.0;  // standardized by construction
      raw_sd_ = 1.0;

      // Build the inverse-CDF table over the shared theta grid: the
      // transformed density is cos(theta)^(2m-2) * exp(-nu * theta) on
      // (-pi/2, pi/2), which is bounded and smooth. iv_cdf_ first holds the
      // log density, then the trapezoid sum replaces it in place, each
      // point's exp carried forward as the next step's left edge.
      const IvGrid& grid = iv_grid();
      iv_theta_ = grid.theta;
      iv_cdf_.resize(kIvGrid + 1);
      const double power = 2.0 * m - 2.0;
      double max_logg = -1e300;
      for (std::size_t i = 0; i <= kIvGrid; ++i) {
        iv_cdf_[i] = power * grid.log_cos[i] - nu * grid.theta[i];
        max_logg = std::max(max_logg, iv_cdf_[i]);
      }
      double g_prev = std::exp(iv_cdf_[0] - max_logg);
      iv_cdf_[0] = 0.0;
      for (std::size_t i = 1; i <= kIvGrid; ++i) {
        const double g_here = std::exp(iv_cdf_[i] - max_logg);
        iv_cdf_[i] = iv_cdf_[i - 1] + 0.5 * (g_prev + g_here) *
                                          (grid.theta[i] - grid.theta[i - 1]);
        g_prev = g_here;
      }
      const double total = iv_cdf_.back();
      VARPRED_CHECK(total > 0.0, "type IV density integrated to zero");
      for (auto& v : iv_cdf_) v /= total;
      break;
    }

    case PearsonType::kTypeV: {
      // Shape-only fit: the family is an inverse gamma up to an affine map,
      // and standardization absorbs shift/scale, so only the shape matters.
      const Coeffs c = pearson_coeffs(skew, kurt);
      VARPRED_CHECK(std::fabs(c.denom) > 1e-10, "type V degenerate denom");
      const double shape = 1.0 / c.c2n - 1.0;
      VARPRED_CHECK(shape > 2.0, "type V shape must exceed 2 for finite var");
      p_a_ = shape;
      raw_mean_ = 1.0 / (shape - 1.0);  // InvGamma(shape, scale = 1)
      raw_sd_ = std::sqrt(1.0 / ((shape - 1.0) * (shape - 1.0) *
                                 (shape - 2.0)));
      orient(1.0);  // inverse gamma skew is always positive
      break;
    }

    case PearsonType::kTypeVI: {
      const Coeffs c = pearson_coeffs(skew, kurt);
      VARPRED_CHECK(std::fabs(c.denom) > 1e-10, "type VI degenerate denom");
      const double disc = c.c1n * c.c1n - 4.0 * c.c0n * c.c2n;
      VARPRED_CHECK(disc >= 0.0, "type VI roots must be real");
      const double sq = std::sqrt(disc);
      double a1 = (-c.c1n - sq) / (2.0 * c.c2n);
      double a2 = (-c.c1n + sq) / (2.0 * c.c2n);
      if (a1 > a2) std::swap(a1, a2);
      const double e1 = (c.c1n + a1) / (c.c2n * (a2 - a1));
      const double e2 = -(c.c1n + a2) / (c.c2n * (a2 - a1));
      // The distribution is an affine image of a beta prime; standardization
      // absorbs the affine part, so only the (alpha, beta) shape matters.
      // Exactly one side of the double root yields an integrable density.
      double alpha;
      double beta;
      if (e2 > -1.0 && e1 + e2 < -1.0) {
        alpha = e2 + 1.0;  // support (a2, inf)
        beta = -e1 - e2 - 1.0;
      } else {
        VARPRED_CHECK(e1 > -1.0 && e1 + e2 < -1.0,
                      "type VI exponents not integrable on either side");
        alpha = e1 + 1.0;  // support (-inf, a1), mirrored
        beta = -e1 - e2 - 1.0;
      }
      VARPRED_CHECK(beta > 2.0, "type VI beta-prime tail too heavy");
      p_a_ = alpha;
      p_b_ = beta;
      raw_mean_ = alpha / (beta - 1.0);
      raw_sd_ = std::sqrt(alpha * (alpha + beta - 1.0) /
                          ((beta - 2.0) * (beta - 1.0) * (beta - 1.0)));
      orient(1.0);  // beta prime skew is always positive (for beta > 3)
      break;
    }
  }
}

double PearsonSampler::sample_standardized(Rng& rng) const {
  double raw = 0.0;
  switch (type_) {
    case PearsonType::kNormal:
      return rngdist::normal(rng);

    case PearsonType::kTypeII:
      raw = rngdist::beta(rng, p_a_, p_a_);
      break;

    case PearsonType::kTypeVII:
      raw = rngdist::student_t(rng, p_a_);
      break;

    case PearsonType::kTypeIII:
      raw = rngdist::gamma(rng, p_a_, 1.0);
      break;

    case PearsonType::kTypeI:
      raw = p_c_ + (p_d_ - p_c_) * rngdist::beta(rng, p_a_, p_b_);
      break;

    case PearsonType::kTypeIV:
      // Inverse-CDF lookup over the theta table, then map back through tan.
      return iv_standardized(
          stats::sample_inverse_cdf(iv_cdf_, iv_theta_, rng));

    case PearsonType::kTypeV:
      raw = 1.0 / rngdist::gamma(rng, p_a_, 1.0);  // InvGamma(shape, 1)
      break;

    case PearsonType::kTypeVI:
      raw = rngdist::gamma(rng, p_a_, 1.0) / rngdist::gamma(rng, p_b_, 1.0);
      break;
  }
  return flip_ * (raw - raw_mean_) / raw_sd_;
}

double PearsonSampler::sample(Rng& rng) const {
  if (target_.stddev == 0.0) return target_.mean;
  return target_.mean + target_.stddev * sample_standardized(rng);
}

double PearsonSampler::iv_standardized(double theta) const {
  return flip_ * (p_d_ + p_c_ * std::tan(theta));
}

std::vector<double> PearsonSampler::sample_many(Rng& rng,
                                                std::size_t n) const {
  std::vector<double> out(n);
  if (type_ == PearsonType::kTypeIV) {  // stddev > 0: not a point mass
    // The bulk table draw, then sample()'s map of each theta, in place.
    stats::sample_inverse_cdf_many(iv_cdf_, iv_theta_, rng, out);
    for (auto& v : out) v = target_.mean + target_.stddev * iv_standardized(v);
    return out;
  }
  for (auto& v : out) v = sample(rng);
  return out;
}

std::vector<double> pearsrnd(const stats::Moments& target, std::size_t n,
                             Rng& rng) {
  const PearsonSampler sampler(target);
  return sampler.sample_many(rng, n);
}

}  // namespace varpred::pearson
