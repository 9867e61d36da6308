#include "core/profile.hpp"

#include <numeric>

#include "common/check.hpp"
#include "obs/obs.hpp"
#include "stats/moments.hpp"

namespace varpred::core {

std::vector<double> build_profile(const measure::SystemModel& system,
                                  const measure::BenchmarkRuns& runs,
                                  std::span<const std::size_t> run_indices,
                                  const ProfileOptions& options) {
  VARPRED_CHECK_ARG(!run_indices.empty(), "profile needs at least one run");
  VARPRED_OBS_COUNT("profile.builds", 1);
  VARPRED_OBS_COUNT("profile.runs_aggregated", run_indices.size());
  const std::size_t n_metrics = runs.counters.cols();
  VARPRED_CHECK_ARG(n_metrics == system.metric_count(),
                    "runs/system metric count mismatch");
  const std::size_t per_metric = options.features_per_metric();
  std::vector<double> features(n_metrics * per_metric, 0.0);

  // One Welford pass over the runs, every metric side by side: the
  // accumulator state is four arrays over metrics, and each run's step
  // factors depend only on the run count, so they are formed once per run
  // and the metric loop is straight-line arithmetic the compiler vectorizes.
  std::vector<double> state(4 * n_metrics, 0.0);
  double* const mean = state.data();
  double* const m2 = mean + n_metrics;
  double* const m3 = m2 + n_metrics;
  double* const m4 = m3 + n_metrics;
  double count = 0.0;
  for (const std::size_t r : run_indices) {
    VARPRED_CHECK_ARG(r < runs.run_count(), "run index out of range");
    const double runtime = runs.runtimes[r];
    const double* const counters = runs.counters.row(r).data();
    const stats::WelfordCounts step = stats::WelfordCounts::after(count);
    for (std::size_t m = 0; m < n_metrics; ++m) {
      stats::welford_step(step, counters[m] / runtime,  // events per second
                          mean[m], m2[m], m3[m], m4[m]);
    }
    count = step.n;
  }

  // Note on duration_time: normalized per second it is identically 1, so it
  // contributes a dead (constant) feature. This matches the paper's "all
  // metrics normalized per unit time" rule -- the pipeline deliberately has
  // no direct runtime-width feature, and distribution width must be
  // inferred from the counters' behaviour.
  for (std::size_t m = 0; m < n_metrics; ++m) {
    const auto moments = stats::MomentAccumulator::from_raw(
                             run_indices.size(), mean[m], m2[m], m3[m], m4[m])
                             .moments();
    features[m * per_metric] = moments.mean;
    if (options.include_higher_moments) {
      features[m * per_metric + 1] = moments.stddev;
      features[m * per_metric + 2] = moments.skewness;
      features[m * per_metric + 3] = moments.kurtosis;
    }
  }
  return features;
}

std::vector<double> build_full_profile(const measure::SystemModel& system,
                                       const measure::BenchmarkRuns& runs,
                                       const ProfileOptions& options) {
  std::vector<std::size_t> all(runs.run_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return build_profile(system, runs, all, options);
}

std::vector<std::string> profile_feature_names(
    const measure::SystemModel& system, const ProfileOptions& options) {
  static const char* kStatNames[] = {"mean", "sd", "skew", "kurt"};
  std::vector<std::string> names;
  names.reserve(system.metric_count() * options.features_per_metric());
  for (const auto& metric : system.metrics()) {
    for (std::size_t s = 0; s < options.features_per_metric(); ++s) {
      names.push_back(metric.name + "/s." + kStatNames[s]);
    }
  }
  return names;
}

std::vector<std::size_t> choose_run_indices(std::size_t total,
                                            std::size_t count, Rng& rng) {
  VARPRED_CHECK_ARG(count >= 1 && count <= total,
                    "need 1 <= count <= total runs");
  // Floyd's algorithm would also work; with the small counts used here a
  // partial Fisher-Yates over the index range is simplest.
  std::vector<std::size_t> pool(total);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_index(total - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(count);
  return pool;
}

}  // namespace varpred::core
