#include "maxent/maxent.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/linalg.hpp"
#include "obs/obs.hpp"
#include "special/quadrature.hpp"
#include "stats/inverse_cdf.hpp"

namespace varpred::maxent {
namespace {

// Evaluates exp(sum lambda_k t^k) with a clamped exponent so intermediate
// overflow cannot occur during Newton iteration.
double exp_poly(std::span<const double> lambda, double t) {
  double acc = 0.0;
  double power = 1.0;
  for (const double l : lambda) {
    acc += l * power;
    power *= t;
  }
  return std::exp(std::clamp(acc, -700.0, 700.0));
}

// Binomial coefficient for small n.
double binom(std::size_t n, std::size_t k) {
  double r = 1.0;
  for (std::size_t i = 0; i < k; ++i) {
    r *= static_cast<double>(n - i) / static_cast<double>(i + 1);
  }
  return r;
}

// Transforms raw moments of x into raw moments of t = (x - mid) / half.
std::vector<double> transform_moments(std::span<const double> mu, double mid,
                                      double half) {
  const std::size_t count = mu.size();
  std::vector<double> out(count, 0.0);
  for (std::size_t k = 0; k < count; ++k) {
    // E[(x - mid)^k] via binomial expansion over raw moments.
    double central = 0.0;
    double mid_pow = 1.0;  // (-mid)^(k-i), built from the top down
    // Compute terms i = k down to 0.
    for (std::size_t step = 0; step <= k; ++step) {
      const std::size_t i = k - step;
      central += binom(k, i) * mu[i] * mid_pow;
      mid_pow *= -mid;
    }
    out[k] = central / std::pow(half, static_cast<double>(k));
  }
  return out;
}

}  // namespace

MomentSolveResult solve_moment_system(std::span<const double> raw_moments,
                                      double lo, double hi,
                                      const MaxEntOptions& options) {
  VARPRED_CHECK_ARG(raw_moments.size() >= 2,
                    "need at least mu_0 and mu_1");
  VARPRED_CHECK_ARG(std::fabs(raw_moments[0] - 1.0) < 1e-9,
                    "mu_0 must equal 1");
  VARPRED_CHECK_ARG(hi > lo, "support must be non-empty");

  const std::size_t order = raw_moments.size();  // K + 1 multipliers
  const double mid = 0.5 * (lo + hi);
  const double half = 0.5 * (hi - lo);
  const auto target = transform_moments(raw_moments, mid, half);

  // Quadrature rule on [-1, 1].
  std::vector<double> nodes;
  std::vector<double> weights;
  special::scaled_rule(options.quad_points, -1.0, 1.0, nodes, weights);

  MomentSolveResult result;
  std::vector<double>& lambda_ = result.lambda;
  if (options.initial_lambda.size() == order) {
    // Warm start from a caller-provided iterate (typically the best lambda
    // of a closely related solve); the line search below only ever accepts
    // residual-reducing steps from it, so a bad seed degrades gracefully.
    lambda_ = options.initial_lambda;
  } else {
    // Cold start at the uniform density on [-1, 1]: f = exp(lambda_0) = 1/2.
    lambda_.assign(order, 0.0);
    lambda_[0] = -std::log(2.0);
  }

  // Precompute node powers up to t^(2K).
  const std::size_t max_pow = 2 * (order - 1);
  std::vector<double> powers(nodes.size() * (max_pow + 1));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    double p = 1.0;
    for (std::size_t k = 0; k <= max_pow; ++k) {
      powers[i * (max_pow + 1) + k] = p;
      p *= nodes[i];
    }
  }

  auto residual_norm = [](std::span<const double> r) {
    double m = 0.0;
    for (const double v : r) m = std::max(m, std::fabs(v));
    return m;
  };

  auto compute_residual = [&](std::span<const double> lam,
                              std::vector<double>& r,
                              std::vector<double>* jac) {
    r.assign(order, 0.0);
    if (jac != nullptr) jac->assign(order * order, 0.0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const double f = exp_poly(lam, nodes[i]) * weights[i];
      const double* pw = &powers[i * (max_pow + 1)];
      for (std::size_t k = 0; k < order; ++k) {
        r[k] += pw[k] * f;
        if (jac != nullptr) {
          for (std::size_t j = 0; j < order; ++j) {
            (*jac)[k * order + j] += pw[k + j] * f;
          }
        }
      }
    }
    for (std::size_t k = 0; k < order; ++k) r[k] -= target[k];
  };

  std::vector<double> r;
  std::vector<double> jac;
  compute_residual(lambda_, r, &jac);
  double best = residual_norm(r);

  // Stall (no residual-reducing step) and divergence abort the iteration;
  // the best iterate reached so far is still returned so a caller can use
  // it to warm-start a retry on a relaxed problem.
  bool aborted = false;
  std::size_t iterations = 0;
  for (; iterations < options.max_iterations; ++iterations) {
    if (best < options.tolerance) break;
    // Newton step: J * delta = -r.
    std::vector<double> rhs(order);
    for (std::size_t k = 0; k < order; ++k) rhs[k] = -r[k];
    std::vector<double> delta = solve_dense(jac, rhs, order, 1e-300);

    if (options.line_search) {
      // Backtracking line search on the residual norm.
      double alpha = options.damping;
      bool accepted = false;
      std::vector<double> trial(order);
      std::vector<double> r_trial;
      for (int ls = 0; ls < 40; ++ls) {
        for (std::size_t k = 0; k < order; ++k) {
          trial[k] = lambda_[k] + alpha * delta[k];
        }
        compute_residual(trial, r_trial, nullptr);
        const double norm_trial = residual_norm(r_trial);
        if (std::isfinite(norm_trial) && norm_trial < best) {
          lambda_ = trial;
          best = norm_trial;
          accepted = true;
          break;
        }
        alpha *= 0.5;
      }
      if (!accepted) {  // stalled
        aborted = true;
        break;
      }
    } else {
      // Unsafeguarded full Newton step (fsolve-style).
      for (std::size_t k = 0; k < order; ++k) {
        lambda_[k] += options.damping * delta[k];
      }
    }
    compute_residual(lambda_, r, &jac);
    best = residual_norm(r);
    if (!std::isfinite(best)) {  // diverged
      aborted = true;
      break;
    }
  }
  result.iterations = iterations;
  result.residual = best;
  result.converged = !aborted && std::isfinite(best) && best < 1e-6;
  if (!aborted) {
    VARPRED_OBS_COUNT("maxent.solves", 1);
    VARPRED_OBS_COUNT("maxent.newton_iterations", iterations);
    VARPRED_OBS_HIST("maxent.iterations_per_solve", iterations);
  }
  if (!result.converged) VARPRED_OBS_COUNT("maxent.failed_solves", 1);
  return result;
}

MaxEntDensity::MaxEntDensity(std::span<const double> raw_moments, double lo,
                             double hi, const MaxEntOptions& options)
    : MaxEntDensity(solve_moment_system(raw_moments, lo, hi, options), lo,
                    hi) {}

MaxEntDensity::MaxEntDensity(const MomentSolveResult& solved, double lo,
                             double hi)
    : lo_(lo), hi_(hi), lambda_(solved.lambda),
      iterations_(solved.iterations) {
  VARPRED_CHECK_ARG(hi > lo, "support must be non-empty");
  VARPRED_CHECK(solved.converged, "max-entropy moment solve did not converge");
  build_cdf_table();
}

void MaxEntDensity::build_cdf_table() {
  constexpr std::size_t kGrid = 1024;
  grid_x_.resize(kGrid + 1);
  grid_cdf_.assign(kGrid + 1, 0.0);
  const double mid = 0.5 * (lo_ + hi_);
  const double half = 0.5 * (hi_ - lo_);
  double prev_f = exp_poly(lambda_, -1.0);
  grid_x_[0] = lo_;
  for (std::size_t i = 1; i <= kGrid; ++i) {
    const double t =
        -1.0 + 2.0 * static_cast<double>(i) / static_cast<double>(kGrid);
    const double f = exp_poly(lambda_, t);
    grid_x_[i] = mid + half * t;
    grid_cdf_[i] = grid_cdf_[i - 1] +
                   0.5 * (prev_f + f) * (2.0 / static_cast<double>(kGrid));
    prev_f = f;
  }
  const double total = grid_cdf_.back();
  VARPRED_CHECK(total > 0.0, "max-entropy density integrated to zero");
  for (auto& v : grid_cdf_) v /= total;
}

double MaxEntDensity::pdf(double x) const {
  if (x < lo_ || x > hi_) return 0.0;
  const double mid = 0.5 * (lo_ + hi_);
  const double half = 0.5 * (hi_ - lo_);
  // exp_poly integrates to 1 over t in [-1, 1]; convert to x density.
  return exp_poly(lambda_, (x - mid) / half) / half;
}

double MaxEntDensity::sample(Rng& rng) const {
  return stats::sample_inverse_cdf(grid_cdf_, grid_x_, rng);
}

std::vector<double> MaxEntDensity::sample_many(Rng& rng, std::size_t n) const {
  std::vector<double> out(n);
  stats::sample_inverse_cdf_many(grid_cdf_, grid_x_, rng, out);
  return out;
}

std::vector<double> raw_moments_from_summary(const stats::Moments& m) {
  const double mu = m.mean;
  const double v = m.stddev * m.stddev;           // central m2
  const double m3 = m.skewness * std::pow(m.stddev, 3.0);
  const double m4 = m.kurtosis * v * v;
  std::vector<double> raw(5);
  raw[0] = 1.0;
  raw[1] = mu;
  raw[2] = v + mu * mu;
  raw[3] = m3 + 3.0 * mu * v + mu * mu * mu;
  raw[4] = m4 + 4.0 * mu * m3 + 6.0 * mu * mu * v + mu * mu * mu * mu;
  return raw;
}

std::vector<double> reconstruct_from_moments(const stats::Moments& m,
                                             std::size_t n, Rng& rng,
                                             double span_sigmas) {
  if (m.stddev <= 0.0) return std::vector<double>(n, m.mean);
  const auto raw = raw_moments_from_summary(m);
  const double lo = m.mean - span_sigmas * m.stddev;
  const double hi = m.mean + span_sigmas * m.stddev;
  // Retry with fewer moments when the full solve fails: the 2-moment problem
  // (truncated Gaussian) is convex and always converges. Each failed order's
  // best iterate, truncated by one multiplier, warm-starts the next attempt
  // down the ladder — the relaxed problem's solution is usually close, which
  // cuts Newton iterations on exactly the stiff moment sets that take the
  // most. Warm starts never cross reconstruct calls, so results stay
  // independent of fold scheduling and worker count.
  MaxEntOptions options;
  for (std::size_t order = raw.size(); order >= 3; --order) {
    const auto solved = solve_moment_system(
        std::span<const double>(raw.data(), order), lo, hi, options);
    if (solved.converged) {
      const MaxEntDensity density(solved, lo, hi);
      return density.sample_many(rng, n);
    }
    options.initial_lambda.assign(
        solved.lambda.begin(),
        solved.lambda.begin() + static_cast<std::ptrdiff_t>(order - 1));
  }
  // Final fallback: a cold-started 2-moment solve, which always converges.
  const MaxEntDensity density(std::span<const double>(raw.data(), 3), lo, hi);
  return density.sample_many(rng, n);
}

}  // namespace varpred::maxent
