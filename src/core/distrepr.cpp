#include "core/distrepr.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "maxent/maxent.hpp"
#include "obs/obs.hpp"
#include "pearson/pearson.hpp"
#include "rngdist/samplers.hpp"
#include "stats/ecdf.hpp"
#include "stats/histogram.hpp"
#include "stats/moments.hpp"

namespace varpred::core {

std::string to_string(ReprKind kind) {
  switch (kind) {
    case ReprKind::kHistogram:
      return "Histogram";
    case ReprKind::kMaxEnt:
      return "PyMaxEnt";
    case ReprKind::kPearson:
      return "PearsonRnd";
    case ReprKind::kQuantile:
      return "Quantile";
  }
  VARPRED_CHECK_ARG(false, "unknown distribution representation");
}

std::span<const ReprKind> all_repr_kinds() {
  static const ReprKind kinds[] = {ReprKind::kHistogram, ReprKind::kMaxEnt,
                                   ReprKind::kPearson};
  return kinds;
}

std::span<const ReprKind> extended_repr_kinds() {
  static const ReprKind kinds[] = {ReprKind::kHistogram, ReprKind::kMaxEnt,
                                   ReprKind::kPearson, ReprKind::kQuantile};
  return kinds;
}

std::unique_ptr<DistributionRepr> DistributionRepr::create(ReprKind kind) {
  switch (kind) {
    case ReprKind::kHistogram:
      return std::make_unique<HistogramRepr>();
    case ReprKind::kMaxEnt:
      return std::make_unique<MaxEntRepr>();
    case ReprKind::kPearson:
      return std::make_unique<PearsonRepr>();
    case ReprKind::kQuantile:
      return std::make_unique<QuantileRepr>();
  }
  VARPRED_CHECK_ARG(false, "unknown representation");
}

QuantileRepr::QuantileRepr(std::size_t count) : count_(count) {
  VARPRED_CHECK_ARG(count >= 3, "need at least three quantiles");
}

std::vector<double> QuantileRepr::encode(
    std::span<const double> relative_times) const {
  std::vector<double> sorted(relative_times.begin(), relative_times.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    const double p =
        (static_cast<double>(i) + 0.5) / static_cast<double>(count_);
    out[i] = stats::quantile_sorted(sorted, p);
  }
  return out;
}

std::vector<double> QuantileRepr::reconstruct(std::span<const double> encoded,
                                              std::size_t n,
                                              Rng& rng) const {
  VARPRED_CHECK_ARG(encoded.size() == count_, "encoded size mismatch");
  // Rearrangement: a regressor may emit a non-monotone quantile vector.
  std::vector<double> q(encoded.begin(), encoded.end());
  std::sort(q.begin(), q.end());

  std::vector<double> out(n);
  const double m = static_cast<double>(count_);
  for (auto& v : out) {
    // Inverse CDF of the piecewise-linear quantile interpolation: pick the
    // position u*m - 0.5 on the quantile grid and interpolate.
    const double pos = rng.uniform() * m - 0.5;
    if (pos <= 0.0) {
      v = q.front();
    } else if (pos >= m - 1.0) {
      v = q.back();
    } else {
      const auto lo = static_cast<std::size_t>(pos);
      const double frac = pos - static_cast<double>(lo);
      v = q[lo] + frac * (q[lo + 1] - q[lo]);
    }
  }
  return out;
}

HistogramRepr::HistogramRepr(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bins_(bins) {
  VARPRED_CHECK_ARG(hi > lo, "histogram range must be non-empty");
  VARPRED_CHECK_ARG(bins >= 2, "need at least two bins");
}

std::vector<double> HistogramRepr::encode(
    std::span<const double> relative_times) const {
  const auto hist = stats::Histogram::fit(relative_times, lo_, hi_, bins_);
  return hist.probabilities();
}

std::vector<double> HistogramRepr::reconstruct(
    std::span<const double> encoded, std::size_t n, Rng& rng) const {
  VARPRED_CHECK_ARG(encoded.size() == bins_, "encoded size mismatch");
  // Predicted bin masses can be slightly negative; clamp and renormalize.
  std::vector<double> probs(encoded.begin(), encoded.end());
  double total = 0.0;
  for (auto& p : probs) {
    p = std::max(p, 0.0);
    total += p;
  }
  if (total <= 0.0) {
    // Completely degenerate prediction: fall back to a point mass at the
    // distribution mean (relative time 1).
    VARPRED_OBS_COUNT("repr.histogram.degenerate_fallbacks", 1);
    return std::vector<double>(n, 1.0);
  }
  return stats::Histogram::sample_many_from_probs(probs, lo_, hi_, n, rng);
}

std::vector<double> MomentRepr::encode(
    std::span<const double> relative_times) const {
  return stats::compute_moments(relative_times).to_vector();
}

std::vector<double> MaxEntRepr::reconstruct(std::span<const double> encoded,
                                            std::size_t n, Rng& rng) const {
  VARPRED_CHECK_ARG(encoded.size() >= 4, "need four moments");
  const auto moments =
      pearson::sanitize_moments(stats::Moments::from_vector(encoded));
  if (moments.stddev <= 0.0) return std::vector<double>(n, moments.mean);

  const auto raw = maxent::raw_moments_from_summary(moments);
  maxent::MaxEntOptions options;
  // Coarse fixed quadrature over the generous shared support: a density a
  // hundred times narrower than the support falls between the nodes, and
  // the moment match genuinely fails -- the dominant PyMaxEnt failure mode
  // on very stable benchmarks.
  options.quad_points = 72;
  // Match the real tooling's solver budget: PyMaxEnt hands the system to a
  // general-purpose root finder with a bounded iteration budget and no
  // damping safeguards, so stiff moment sets (narrow or strongly skewed
  // distributions on the shared support) genuinely fail there. Capping the
  // Newton iterations reproduces that failure surface; the in-library
  // MaxEntDensity default remains fully robust for library users.
  options.max_iterations = 25;
  options.line_search = false;  // fsolve-style unsafeguarded steps
  // Full four-moment solve first, then degrade to three and two moments
  // when the Newton iteration cannot converge on the shared support.
  for (std::size_t order = raw.size(); order >= 3; --order) {
    try {
      const maxent::MaxEntDensity density(
          std::span<const double>(raw.data(), order), kMaxEntLo, kMaxEntHi,
          options);
      if (order < raw.size()) {
        VARPRED_OBS_COUNT("repr.maxent.degraded_solves", 1);
      }
      return density.sample_many(rng, n);
    } catch (const CheckError&) {
      // retry with fewer moments
    } catch (const std::invalid_argument&) {
      break;  // moments incompatible with the support (e.g. mean outside)
    }
  }
  // Every solve failed: the real tooling returns an unconverged (garbage)
  // density here; the uninformative uniform over the support is the honest
  // equivalent.
  VARPRED_OBS_COUNT("repr.maxent.uniform_fallbacks", 1);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.uniform(kMaxEntLo, kMaxEntHi);
  return out;
}

std::vector<double> PearsonRepr::reconstruct(std::span<const double> encoded,
                                             std::size_t n, Rng& rng) const {
  VARPRED_CHECK_ARG(encoded.size() >= 4, "need four moments");
  const auto moments =
      pearson::sanitize_moments(stats::Moments::from_vector(encoded));
  try {
    const pearson::PearsonSampler sampler(moments);
    return sampler.sample_many(rng, n);
  } catch (const CheckError&) {
    // Family fit failed on a numerically extreme prediction: degrade to the
    // normal distribution with the predicted mean/stddev.
    VARPRED_OBS_COUNT("repr.pearson.normal_fallbacks", 1);
    std::vector<double> out(n);
    for (auto& v : out) {
      v = rngdist::normal(rng, moments.mean, moments.stddev);
    }
    return out;
  }
}

}  // namespace varpred::core
