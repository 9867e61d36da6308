#include "stats/inverse_cdf.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"

namespace varpred::stats {
namespace {

// Lower bounds of K values at once. Every search halves the same range
// length in the same steps, so the K searches advance in lockstep and their
// loads are independent; each step is a compare and a conditional add, no
// branch on the data. The range [base, base + len] holds the answer
// throughout: when cdf[base + half] < u the answer lies above base + half.
template <std::size_t K>
void search(std::span<const double> cdf, const double* u,
            std::size_t* index) {
  std::array<std::size_t, K> base{};
  if (!cdf.empty()) {
    for (std::size_t len = cdf.size(); len > 1;) {
      const std::size_t half = len / 2;
      for (std::size_t j = 0; j < K; ++j) {
        base[j] += cdf[base[j] + half] < u[j] ? half : 0;
      }
      len -= half;
    }
    for (std::size_t j = 0; j < K; ++j) base[j] += cdf[base[j]] < u[j];
  }
  std::copy(base.begin(), base.end(), index);
}

void check_table(std::span<const double> cdf, std::span<const double> x) {
  VARPRED_CHECK_ARG(cdf.size() >= 2 && x.size() == cdf.size(),
                    "inverse-CDF table needs two or more knots, one x each");
}

// The interpolation of inverse_cdf, given u's lower-bound index.
double interpolate(std::span<const double> cdf, std::span<const double> x,
                   double u, std::size_t index) {
  const std::size_t hi = std::clamp<std::size_t>(index, 1, cdf.size() - 1);
  const std::size_t lo = hi - 1;
  const double span = cdf[hi] - cdf[lo];
  const double frac = span > 0.0 ? (u - cdf[lo]) / span : 0.5;
  return x[lo] + frac * (x[hi] - x[lo]);
}

}  // namespace

std::size_t cdf_lower_bound(std::span<const double> cdf, double u) {
  std::size_t index = 0;
  search<1>(cdf, &u, &index);
  return index;
}

void cdf_lower_bounds(std::span<const double> cdf, std::span<const double> u,
                      std::span<std::size_t> index) {
  VARPRED_CHECK_ARG(u.size() <= kDrawBlock && index.size() == u.size(),
                    "one index per value, at most one block of values");
  // A short block searches zeros in its unused lanes.
  std::array<double, kDrawBlock> lanes{};
  std::array<std::size_t, kDrawBlock> found{};
  std::copy(u.begin(), u.end(), lanes.begin());
  search<kDrawBlock>(cdf, lanes.data(), found.data());
  std::copy_n(found.begin(), u.size(), index.begin());
}

double inverse_cdf(std::span<const double> cdf, std::span<const double> x,
                   double u) {
  check_table(cdf, x);
  return interpolate(cdf, x, u, cdf_lower_bound(cdf, u));
}

double sample_inverse_cdf(std::span<const double> cdf,
                          std::span<const double> x, Rng& rng) {
  return inverse_cdf(cdf, x, rng.uniform());
}

void sample_inverse_cdf_many(std::span<const double> cdf,
                             std::span<const double> x, Rng& rng,
                             std::span<double> out) {
  check_table(cdf, x);
  for (std::size_t begin = 0; begin < out.size(); begin += kDrawBlock) {
    const std::size_t count = std::min(kDrawBlock, out.size() - begin);
    std::array<double, kDrawBlock> u{};
    for (std::size_t j = 0; j < count; ++j) u[j] = rng.uniform();
    std::array<std::size_t, kDrawBlock> index{};
    cdf_lower_bounds(cdf, {u.data(), count}, {index.data(), count});
    for (std::size_t j = 0; j < count; ++j) {
      out[begin + j] = interpolate(cdf, x, u[j], index[j]);
    }
  }
}

}  // namespace varpred::stats
