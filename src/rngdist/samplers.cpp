#include "rngdist/samplers.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/detmath.hpp"

namespace varpred::rngdist {

double normal(Rng& rng) {
  // Marsaglia polar method; discards the second variate for simplicity
  // (samplers must be stateless so splitting/reseeding stays reproducible).
  for (;;) {
    const double u = 2.0 * rng.uniform() - 1.0;
    const double v = 2.0 * rng.uniform() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * detmath::log(s) / s);
    }
  }
}

void normal_fill(Rng& rng, std::span<double> out) {
  // normal()'s loop, split in two. The draw loop stores every (u, s) pair
  // and advances the write index only on acceptance, so a rejected pair is
  // overwritten by the next one; it stops at the chunk's last acceptance,
  // so it never draws ahead of the sequential calls. The transform then
  // applies normal()'s own expression to the accepted pairs.
  constexpr std::size_t kChunk = 128;
  double s_chunk[kChunk] = {};
  double log_s[kChunk];
  for (std::size_t done = 0; done < out.size();) {
    const std::size_t want = std::min(kChunk, out.size() - done);
    double* u_chunk = out.data() + done;
    for (std::size_t k = 0; k < want;) {
      const double u = 2.0 * rng.uniform() - 1.0;
      const double v = 2.0 * rng.uniform() - 1.0;
      const double s = u * u + v * v;
      u_chunk[k] = u;
      s_chunk[k] = s;
      k += static_cast<std::size_t>((s > 0.0) & (s < 1.0));
    }
    detmath::log_block(std::span<const double>(s_chunk, want),
                       std::span<double>(log_s, want));
    for (std::size_t k = 0; k < want; ++k) {
      u_chunk[k] = u_chunk[k] * std::sqrt(-2.0 * log_s[k] / s_chunk[k]);
    }
    done += want;
  }
}

double normal(Rng& rng, double mu, double sigma) {
  return mu + sigma * normal(rng);
}

double exponential(Rng& rng, double lambda) {
  VARPRED_CHECK_ARG(lambda > 0.0, "exponential rate must be > 0");
  // -log(1-U) avoids log(0) since uniform() < 1.
  return -std::log1p(-rng.uniform()) / lambda;
}

double gamma(Rng& rng, double shape, double scale) {
  VARPRED_CHECK_ARG(shape > 0.0 && scale > 0.0,
                    "gamma shape and scale must be > 0");
  if (shape < 1.0) {
    // Boost: X ~ Gamma(shape+1), return X * U^(1/shape).
    const double x = gamma(rng, shape + 1.0, 1.0);
    double u = rng.uniform();
    while (u == 0.0) u = rng.uniform();
    return scale * x * std::pow(u, 1.0 / shape);
  }
  // Marsaglia-Tsang squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = normal(rng);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.uniform();
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return scale * d * v;
    if (u > 0.0 &&
        std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) {
      return scale * d * v;
    }
  }
}

double beta(Rng& rng, double a, double b) {
  VARPRED_CHECK_ARG(a > 0.0 && b > 0.0, "beta parameters must be > 0");
  const double x = gamma(rng, a, 1.0);
  const double y = gamma(rng, b, 1.0);
  return x / (x + y);
}

double chi_squared(Rng& rng, double nu) {
  VARPRED_CHECK_ARG(nu > 0.0, "chi-squared dof must be > 0");
  return gamma(rng, 0.5 * nu, 2.0);
}

double student_t(Rng& rng, double nu) {
  VARPRED_CHECK_ARG(nu > 0.0, "student-t dof must be > 0");
  const double z = normal(rng);
  const double w = chi_squared(rng, nu);
  return z / std::sqrt(w / nu);
}

double lognormal(Rng& rng, double mu_log, double sigma_log) {
  return std::exp(normal(rng, mu_log, sigma_log));
}

}  // namespace varpred::rngdist
