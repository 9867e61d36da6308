// The one inverse-CDF draw of the tabulated samplers. A table is a set of
// knots x[i] with nondecreasing CDF values cdf[i]; a draw takes one uniform
// u, finds the knot pair that brackets it and interpolates linearly between
// them. MaxEnt densities (maxent/) and Pearson type IV (pearson/) sample
// through it.
//
// The bulk draw keeps the single draw's results and RNG use exactly: one
// uniform per sample, drawn in sample order. It takes the uniforms of a
// block of up to kDrawBlock samples in order, runs the block's table
// searches side by side so their dependent loads overlap, then interpolates
// in order. The search is std::lower_bound's, without a data-dependent
// branch.
#pragma once

#include <cstddef>
#include <span>

#include "common/rng.hpp"

namespace varpred::stats {

/// Samples per interleaved block of sample_inverse_cdf_many.
inline constexpr std::size_t kDrawBlock = 8;

/// The index std::lower_bound returns for `u` in the ascending `cdf`: the
/// first i with !(cdf[i] < u), or cdf.size() when there is none.
std::size_t cdf_lower_bound(std::span<const double> cdf, double u);

/// cdf_lower_bound for each of up to kDrawBlock values of `u` (into
/// `index`, which has u.size() entries), the searches interleaved.
void cdf_lower_bounds(std::span<const double> cdf, std::span<const double> u,
                      std::span<std::size_t> index);

/// The table's inverse CDF at `u`: linear interpolation between the knots
/// bracketing it. A u at or below the first CDF value takes the first pair,
/// one above the last value the last pair, and a pair of equal CDF values
/// gives its midpoint. Needs two or more knots, cdf and x of equal size.
double inverse_cdf(std::span<const double> cdf, std::span<const double> x,
                   double u);

/// One draw: inverse_cdf at one rng.uniform().
double sample_inverse_cdf(std::span<const double> cdf,
                          std::span<const double> x, Rng& rng);

/// out.size() draws, bit-identical to as many sample_inverse_cdf calls in a
/// row, leaving `rng` in the same state.
void sample_inverse_cdf_many(std::span<const double> cdf,
                             std::span<const double> x, Rng& rng,
                             std::span<double> out);

}  // namespace varpred::stats
