// Maximum-entropy density reconstruction from moments (PyMaxEnt equivalent).
//
// Given raw moments mu_0..mu_K of a distribution supported on [lo, hi], the
// maximum-entropy density has the exponential-polynomial form
//     f(x) = exp( sum_{k=0..K} lambda_k x^k )
// where the Lagrange multipliers lambda solve the nonlinear moment-matching
// system  integral x^k f(x) dx = mu_k.  We solve it with damped Newton
// iteration over Gauss-Legendre quadrature, exactly like PyMaxEnt.
//
// The paper's "PyMaxEnt" distribution representation predicts the first four
// moments of the relative runtime and reconstructs the density this way.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "stats/moments.hpp"

namespace varpred::maxent {

/// Options for the Newton solve.
struct MaxEntOptions {
  std::size_t max_iterations = 200;
  double tolerance = 1e-10;   ///< max |moment residual| convergence target
  std::size_t quad_points = 96;
  double damping = 1.0;       ///< initial Newton step scale (line-searched)
  /// With line search (default) the Newton iteration only accepts steps
  /// that reduce the residual -- robust. Without it, full Newton steps are
  /// taken unconditionally, emulating the general-purpose root finder the
  /// original PyMaxEnt pipeline relies on, which genuinely diverges on
  /// stiff moment sets (strong skew, narrow densities on wide supports).
  bool line_search = true;
  /// Warm-start multipliers. When the size matches the moment count the
  /// Newton iteration starts here instead of at the uniform density;
  /// otherwise ignored. Used by reconstruct_from_moments to seed each step
  /// of the 4->3->2 degrade ladder with the previous (failed) order's best
  /// iterate.
  std::vector<double> initial_lambda;
};

/// Outcome of one damped-Newton moment solve (see solve_moment_system).
struct MomentSolveResult {
  bool converged = false;
  /// Best iterate reached — the solution when converged, otherwise the
  /// lowest-residual lambda seen (useful as a warm start for a retry).
  std::vector<double> lambda;
  std::size_t iterations = 0;
  double residual = 0.0;
};

/// Runs the damped-Newton moment-matching solve for the density
/// exp(sum lambda_k t^k) on [lo, hi]. Never throws on solver failure
/// (convergence is reported in the result); throws std::invalid_argument on
/// malformed inputs.
MomentSolveResult solve_moment_system(std::span<const double> raw_moments,
                                      double lo, double hi,
                                      const MaxEntOptions& options = {});

/// Reconstructed maximum-entropy density on a finite interval.
class MaxEntDensity {
 public:
  /// Solves for the density on [lo, hi] matching raw moments
  /// mu_0..mu_{moments.size()-1} (mu_0 must be 1). Throws CheckError when the
  /// Newton iteration fails to converge (caller should fall back, e.g. to
  /// fewer moments; see reconstruct_from_moments).
  MaxEntDensity(std::span<const double> raw_moments, double lo, double hi,
                const MaxEntOptions& options = {});

  /// Wraps an already-computed solve (avoids re-running Newton when the
  /// caller drove solve_moment_system itself, e.g. the degrade ladder in
  /// reconstruct_from_moments). Throws CheckError when `solved` did not
  /// converge.
  MaxEntDensity(const MomentSolveResult& solved, double lo, double hi);

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  const std::vector<double>& lambdas() const { return lambda_; }
  std::size_t iterations_used() const { return iterations_; }

  /// Density value at x (0 outside [lo, hi]).
  double pdf(double x) const;

  /// Draws one variate via inverse CDF on the quadrature grid.
  double sample(Rng& rng) const;

  /// Draws n variates: the same values, and the same RNG use, as n calls of
  /// sample(), through the bulk table draw (stats/inverse_cdf.hpp).
  std::vector<double> sample_many(Rng& rng, std::size_t n) const;

 private:
  double lo_;
  double hi_;
  std::vector<double> lambda_;
  std::size_t iterations_ = 0;
  // Cached CDF table for sampling.
  std::vector<double> grid_x_;
  std::vector<double> grid_cdf_;

  void build_cdf_table();
};

/// Converts moment-summary form (mean, sd, skew, kurt) to the raw moments
/// mu_0..mu_4 used by the solver.
std::vector<double> raw_moments_from_summary(const stats::Moments& m);

/// High-level reconstruction used by the prediction pipeline: builds a
/// max-entropy density from (mean, sd, skew, kurt) on a support derived from
/// the moments (mean +/- span_sigmas * sd), retrying with progressively fewer
/// moments (4 -> 3 -> 2) when the solve fails; the 2-moment solution is a
/// truncated Gaussian and always converges. Returns n samples.
std::vector<double> reconstruct_from_moments(const stats::Moments& m,
                                             std::size_t n, Rng& rng,
                                             double span_sigmas = 6.0);

}  // namespace varpred::maxent
