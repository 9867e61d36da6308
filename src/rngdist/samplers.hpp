// Exact samplers for the classical distributions, implemented in-repo so
// results are deterministic across platforms (std:: distributions are
// implementation-defined). All samplers draw from a varpred::Rng.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace varpred::rngdist {

/// Standard normal via the Marsaglia polar method.
double normal(Rng& rng);

/// Fills `out` with standard normals: the same values, and the same `rng`
/// state afterwards, as out.size() successive normal(rng) calls. Draws in
/// chunks: the polar method's accept test advances a write index instead
/// of branching, log runs over the accepted chunk as one detmath block,
/// and sqrt and the divide in one loop.
void normal_fill(Rng& rng, std::span<double> out);

/// Normal with mean mu and standard deviation sigma (> 0 not required;
/// sigma == 0 returns mu).
double normal(Rng& rng, double mu, double sigma);

/// Exponential with rate lambda > 0.
double exponential(Rng& rng, double lambda);

/// Gamma with shape k > 0 and scale theta > 0 (Marsaglia-Tsang, with the
/// standard boosting trick for k < 1).
double gamma(Rng& rng, double shape, double scale = 1.0);

/// Beta(a, b) via two gamma draws.
double beta(Rng& rng, double a, double b);

/// Chi-squared with nu > 0 degrees of freedom.
double chi_squared(Rng& rng, double nu);

/// Student-t with nu > 0 degrees of freedom.
double student_t(Rng& rng, double nu);

/// Log-normal: exp(Normal(mu_log, sigma_log)).
double lognormal(Rng& rng, double mu_log, double sigma_log);

/// Fills `out` with n draws from `sample_one`.
template <typename Fn>
std::vector<double> sample_many(std::size_t n, Fn&& sample_one) {
  std::vector<double> out(n);
  for (auto& v : out) v = sample_one();
  return out;
}

}  // namespace varpred::rngdist
