#include "core/profile.hpp"

#include <numeric>

#include "common/check.hpp"
#include "common/simd.hpp"
#include "obs/obs.hpp"
#include "stats/moments.hpp"

#ifdef VARPRED_SIMD_AVX2
#include <immintrin.h>
#endif

namespace varpred::core {
namespace {

// The Welford pass of build_profile over the (checked) runs: the state is
// four arrays over metrics (mean, then the 2nd-4th central moment sums, at
// state[0..4 * metrics)), and each run's step factors depend only on the
// run count, so they are formed once per run and the metric loop is
// straight-line arithmetic, element-wise across metrics.
using WelfordPass = void (*)(const measure::BenchmarkRuns& runs,
                             std::span<const std::size_t> run_indices,
                             double* state);

void welford_pass_scalar(const measure::BenchmarkRuns& runs,
                         std::span<const std::size_t> run_indices,
                         double* state) {
  const std::size_t n_metrics = runs.counters.cols();
  double* const mean = state;
  double* const m2 = mean + n_metrics;
  double* const m3 = m2 + n_metrics;
  double* const m4 = m3 + n_metrics;
  double count = 0.0;
  for (const std::size_t r : run_indices) {
    const double runtime = runs.runtimes[r];
    const double* const counters = runs.counters.row(r).data();
    const stats::WelfordCounts step = stats::WelfordCounts::after(count);
    for (std::size_t m = 0; m < n_metrics; ++m) {
      stats::welford_step(step, counters[m] / runtime,  // events per second
                          mean[m], m2[m], m3[m], m4[m]);
    }
    count = step.n;
  }
}

#ifdef VARPRED_SIMD_AVX2

// welford_pass_scalar four metrics per vector, welford_step term by term
// (no FMA: see common/simd.hpp), the last metrics through welford_step.
__attribute__((target("avx2"))) void welford_pass_avx2(
    const measure::BenchmarkRuns& runs,
    std::span<const std::size_t> run_indices, double* state) {
  const std::size_t n_metrics = runs.counters.cols();
  const std::size_t n_vector = n_metrics - n_metrics % 4;
  double* const mean = state;
  double* const m2 = mean + n_metrics;
  double* const m3 = m2 + n_metrics;
  double* const m4 = m3 + n_metrics;
  const __m256d three = _mm256_set1_pd(3.0);
  const __m256d four = _mm256_set1_pd(4.0);
  const __m256d six = _mm256_set1_pd(6.0);
  double count = 0.0;
  for (const std::size_t r : run_indices) {
    const double runtime = runs.runtimes[r];
    const double* const counters = runs.counters.row(r).data();
    const stats::WelfordCounts step = stats::WelfordCounts::after(count);
    const __m256d time = _mm256_set1_pd(runtime);
    const __m256d n1 = _mm256_set1_pd(step.n1);
    const __m256d n = _mm256_set1_pd(step.n);
    const __m256d poly = _mm256_set1_pd(step.poly);
    const __m256d n_minus_2 = _mm256_set1_pd(step.n_minus_2);
    for (std::size_t m = 0; m < n_vector; m += 4) {
      const __m256d x = _mm256_div_pd(_mm256_loadu_pd(counters + m), time);
      const __m256d old_mean = _mm256_loadu_pd(mean + m);
      const __m256d old_m2 = _mm256_loadu_pd(m2 + m);
      const __m256d old_m3 = _mm256_loadu_pd(m3 + m);
      const __m256d delta = _mm256_sub_pd(x, old_mean);
      const __m256d delta_n = _mm256_div_pd(delta, n);
      const __m256d delta_n2 = _mm256_mul_pd(delta_n, delta_n);
      const __m256d term1 = _mm256_mul_pd(_mm256_mul_pd(delta, delta_n), n1);
      _mm256_storeu_pd(mean + m, _mm256_add_pd(old_mean, delta_n));
      const __m256d m4_inc = _mm256_sub_pd(
          _mm256_add_pd(_mm256_mul_pd(_mm256_mul_pd(term1, delta_n2), poly),
                        _mm256_mul_pd(_mm256_mul_pd(six, delta_n2), old_m2)),
          _mm256_mul_pd(_mm256_mul_pd(four, delta_n), old_m3));
      _mm256_storeu_pd(m4 + m,
                       _mm256_add_pd(_mm256_loadu_pd(m4 + m), m4_inc));
      const __m256d m3_inc = _mm256_sub_pd(
          _mm256_mul_pd(_mm256_mul_pd(term1, delta_n), n_minus_2),
          _mm256_mul_pd(_mm256_mul_pd(three, delta_n), old_m2));
      _mm256_storeu_pd(m3 + m, _mm256_add_pd(old_m3, m3_inc));
      _mm256_storeu_pd(m2 + m, _mm256_add_pd(old_m2, term1));
    }
    for (std::size_t m = n_vector; m < n_metrics; ++m) {
      stats::welford_step(step, counters[m] / runtime, mean[m], m2[m], m3[m],
                          m4[m]);
    }
    count = step.n;
  }
}

#endif  // VARPRED_SIMD_AVX2

WelfordPass dispatched_pass() {
  static const WelfordPass chosen = [] {
#ifdef VARPRED_SIMD_AVX2
    if (avx2_enabled()) return static_cast<WelfordPass>(welford_pass_avx2);
#endif
    return static_cast<WelfordPass>(welford_pass_scalar);
  }();
  return chosen;
}

}  // namespace

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

  // One Welford pass over the runs, every metric side by side (see
  // welford_pass_scalar).
  for (const std::size_t r : run_indices) {
    VARPRED_CHECK_ARG(r < runs.run_count(), "run index out of range");
  }
  std::vector<double> state(4 * n_metrics, 0.0);
  dispatched_pass()(runs, run_indices, state.data());
  const double* const mean = state.data();
  const double* const m2 = mean + n_metrics;
  const double* const m3 = m2 + n_metrics;
  const double* const m4 = m3 + n_metrics;

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
