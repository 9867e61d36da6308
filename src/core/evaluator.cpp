#include "core/evaluator.hpp"

#include <cstdlib>
#include <numeric>
#include <span>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "core/evalcache.hpp"
#include "obs/obs.hpp"
#include "obs/quality.hpp"
#include "stats/ecdf.hpp"
#include "stats/ks.hpp"
#include "stats/overlap.hpp"
#include "stats/wasserstein.hpp"

namespace varpred::core {
namespace {

std::vector<std::size_t> all_but(std::size_t n, std::size_t held_out) {
  std::vector<std::size_t> out;
  out.reserve(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (i != held_out) out.push_back(i);
  }
  return out;
}

// Deterministic probe-run selection for the held-out benchmark.
std::vector<std::size_t> probe_runs_for(const measure::BenchmarkRuns& runs,
                                        std::size_t n_probe,
                                        std::uint64_t seed,
                                        std::size_t bench) {
  Rng rng(seed_combine(seed, 0xBEEF0000ULL + bench));
  return choose_run_indices(runs.run_count(),
                            std::min(n_probe, runs.run_count()), rng);
}

// Escape hatch: VARPRED_EVAL_NO_CACHE=1 pins the original per-fold path
// that rebuilds profiles, targets, and column sorts inside every fold. Kept
// so the equivalence tests can prove the cached path changes no score.
bool eval_cache_disabled() {
  const char* env = std::getenv("VARPRED_EVAL_NO_CACHE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// True when this evaluation should also feed the quality recorder (the
// caller asked for labels and a harness switched recording on).
bool quality_requested(const EvalOptions& options) {
  return obs::QualityRecorder::enabled() && !options.quality_repr.empty();
}

// Records the fold-median of each accuracy metric as one marginal cell
// (app="*") per metric. Called from the orchestrating thread after the
// parallel fold loop, so recording order is deterministic.
void record_fold_medians(std::string systems, const EvalOptions& options,
                         std::span<const double> ks,
                         std::span<const double> w1,
                         std::span<const double> overlap) {
  obs::QualityCellKey key;
  key.app = "*";
  key.systems = std::move(systems);
  key.repr = options.quality_repr;
  key.model = options.quality_model;
  key.context = options.quality_context;
  obs::QualityRecorder& recorder = obs::QualityRecorder::instance();
  key.metric = "ks";
  recorder.record(key, stats::median(ks));
  key.metric = "wasserstein1_normalized";
  recorder.record(key, stats::median(w1));
  key.metric = "overlap";
  recorder.record(key, stats::median(overlap));
}

}  // namespace

std::vector<double> predict_held_out_few_runs(const measure::Corpus& corpus,
                                              std::size_t bench,
                                              const FewRunsConfig& config,
                                              const EvalOptions& options,
                                              const FewRunsEvalCache* cache) {
  VARPRED_CHECK_ARG(bench < corpus.benchmarks.size(),
                    "benchmark index out of range");
  FewRunsPredictor predictor(config);
  predictor.train(corpus, all_but(corpus.benchmarks.size(), bench), cache);
  const auto& runs = corpus.benchmarks[bench];
  const auto probes =
      probe_runs_for(runs, config.n_probe_runs, options.seed, bench);
  Rng rng(seed_combine(options.seed, 0xD15717ULL + bench));
  return predictor.predict_distribution(runs, probes, options.n_reconstruct,
                                        rng);
}

std::vector<double> predict_held_out_cross_system(
    const measure::Corpus& source, const measure::Corpus& target,
    std::size_t bench, const CrossSystemConfig& config,
    const EvalOptions& options, const CrossSystemEvalCache* cache) {
  VARPRED_CHECK_ARG(bench < source.benchmarks.size(),
                    "benchmark index out of range");
  CrossSystemPredictor predictor(config);
  predictor.train(source, target, all_but(source.benchmarks.size(), bench),
                  cache);
  Rng rng(seed_combine(options.seed, 0xC105500ULL + bench));
  // The cache also holds the held-out benchmark's features: its row is
  // make_features of the benchmark's source runs, byte for byte, so the
  // fold reads it instead of building the profile a second time.
  if (cache != nullptr) {
    return predictor.predict_distribution(cache->features.row(bench),
                                          options.n_reconstruct, rng);
  }
  return predictor.predict_distribution(source.benchmarks[bench],
                                        options.n_reconstruct, rng);
}

WindowScore score_window(std::span<const double> measured,
                         std::span<const double> predicted) {
  WindowScore score;
  score.ks = stats::ks_statistic(measured, predicted);
  score.wasserstein1 = stats::wasserstein1_normalized(measured, predicted);
  score.overlap = stats::overlap_coefficient(measured, predicted);
  return score;
}

EvalResult evaluate_few_runs(const measure::Corpus& corpus,
                             const FewRunsConfig& config,
                             const EvalOptions& options) {
  const std::size_t n = corpus.benchmarks.size();
  obs::Span span("eval.few_runs", obs::Span::kPoolStats);
  EvalResult result;
  result.benchmark_names.resize(n);
  result.ks.resize(n);
  const bool record_quality = quality_requested(options);
  std::vector<double> w1(record_quality ? n : 0);
  std::vector<double> overlap(record_quality ? n : 0);
  // Fold-shared training artifacts, built once and read concurrently by
  // every fold (see core/evalcache.hpp for the byte-identity argument).
  std::unique_ptr<const FewRunsEvalCache> cache;
  if (!eval_cache_disabled()) {
    cache = std::make_unique<const FewRunsEvalCache>(
        FewRunsEvalCache::build(corpus, config));
  }
  parallel_for(n, [&](std::size_t b) {
    obs::Span fold("eval.fold");
    const auto predicted =
        predict_held_out_few_runs(corpus, b, config, options, cache.get());
    const auto measured = corpus.benchmarks[b].relative_times();
    if (record_quality) {
      const WindowScore score = score_window(measured, predicted);
      result.ks[b] = score.ks;
      w1[b] = score.wasserstein1;
      overlap[b] = score.overlap;
    } else {
      result.ks[b] = stats::ks_statistic(measured, predicted);
    }
    result.benchmark_names[b] =
        measure::benchmark_table()[corpus.benchmarks[b].benchmark].full_name();
  });
  VARPRED_OBS_COUNT("eval.few_runs.folds", n);
  if (record_quality) {
    record_fold_medians(corpus.system->name(), options, result.ks, w1,
                        overlap);
  }
  return result;
}

EvalResult evaluate_cross_system(const measure::Corpus& source,
                                 const measure::Corpus& target,
                                 const CrossSystemConfig& config,
                                 const EvalOptions& options) {
  VARPRED_CHECK_ARG(source.benchmarks.size() == target.benchmarks.size(),
                    "corpora must cover the same benchmark set");
  const std::size_t n = source.benchmarks.size();
  obs::Span span("eval.cross_system", obs::Span::kPoolStats);
  EvalResult result;
  result.benchmark_names.resize(n);
  result.ks.resize(n);
  const bool record_quality = quality_requested(options);
  std::vector<double> w1(record_quality ? n : 0);
  std::vector<double> overlap(record_quality ? n : 0);
  std::unique_ptr<const CrossSystemEvalCache> cache;
  if (!eval_cache_disabled()) {
    cache = std::make_unique<const CrossSystemEvalCache>(
        CrossSystemEvalCache::build(source, target, config));
  }
  parallel_for(n, [&](std::size_t b) {
    obs::Span fold("eval.fold");
    const auto predicted = predict_held_out_cross_system(
        source, target, b, config, options, cache.get());
    const auto measured = target.benchmarks[b].relative_times();
    if (record_quality) {
      const WindowScore score = score_window(measured, predicted);
      result.ks[b] = score.ks;
      w1[b] = score.wasserstein1;
      overlap[b] = score.overlap;
    } else {
      result.ks[b] = stats::ks_statistic(measured, predicted);
    }
    result.benchmark_names[b] =
        measure::benchmark_table()[source.benchmarks[b].benchmark]
            .full_name();
  });
  VARPRED_OBS_COUNT("eval.cross_system.folds", n);
  if (record_quality) {
    record_fold_medians(source.system->name() + "->" + target.system->name(),
                        options, result.ks, w1, overlap);
  }
  return result;
}

}  // namespace varpred::core
