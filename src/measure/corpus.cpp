#include "measure/corpus.hpp"

#include <array>
#include <cmath>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"
#include "rngdist/samplers.hpp"
#include "stats/moments.hpp"

namespace varpred::measure {

std::vector<double> BenchmarkRuns::relative_times() const {
  return stats::to_relative(runtimes);
}

const BenchmarkRuns& Corpus::runs_of(const std::string& full_name) const {
  return benchmarks[benchmark_index(full_name)];
}

namespace {

// What every run of one (benchmark, system, condition) shares: the
// ground-truth mixture and its mean, and per metric the mode-independent
// log-rate, category and noise sigma. measure_benchmark builds it once for
// all of its runs.
struct RunInputs {
  const SystemModel* system = nullptr;
  rngdist::Mixture mixture;
  double mixture_mean = 0.0;
  std::vector<double> trait_log_rates;
  std::vector<MetricCategory> categories;
  std::vector<double> sigmas;
};

RunInputs run_inputs(const BenchmarkInfo& bench, const SystemModel& system,
                     const SystemCondition& cond) {
  RunInputs in;
  in.system = &system;
  in.mixture = system.runtime_distribution(bench, cond);
  in.mixture_mean = in.mixture.mean();
  in.trait_log_rates = system.trait_log_rates(bench);
  in.categories.reserve(system.metric_count());
  in.sigmas.reserve(system.metric_count());
  for (std::size_t m = 0; m < system.metric_count(); ++m) {
    in.categories.push_back(system.metrics()[m].category);
    in.sigmas.push_back(system.counter_model(m).noise_sigma);
  }
  return in;
}

// One run: draws the runtime (returned) and its mode, and writes the
// absolute counts into `counters` (one per metric).
double simulate_into(const RunInputs& in, Rng& rng, std::size_t& mode,
                     std::span<double> counters) {
  const double runtime = in.mixture.sample(rng, &mode);
  VARPRED_CHECK(runtime > 0.0, "non-positive simulated runtime");

  // Counter rates react to how slow this particular run was relative to the
  // benchmark's typical run (its mixture mean): runs that landed in a slow
  // NUMA mode or caught a GC pause show elevated memory-side traffic per
  // second and depressed instruction throughput. This coupling is what makes
  // runtime variability observable in a profile built from a few runs.
  in.system->rates_at_mode(in.trait_log_rates, runtime / in.mixture_mean,
                           counters);

  // Run-level noise has three components: a machine-wide factor (frequency
  // and thermal state of this particular run), a per-category factor (e.g.
  // the whole cache hierarchy runs hot together), and independent per-metric
  // jitter. The correlated components are what make a profile from a single
  // run unrepresentative -- they cannot be averaged away across metrics,
  // only across runs.
  // Heavy-tailed (Student-t) correlated factors: most runs are mildly
  // perturbed, occasional runs (cold caches, background daemon, thermal
  // event) are far off -- the single unrepresentative run of Fig. 1.
  constexpr double kGlobalNoise = 0.28;
  constexpr double kCategoryNoise = 0.45;
  const double z_global = rngdist::student_t(rng, 4.0);
  std::array<double, 6> z_category;
  for (auto& z : z_category) z = rngdist::student_t(rng, 4.0);

  for (std::size_t m = 0; m < counters.size(); ++m) {
    const auto category = in.categories[m];
    if (category == MetricCategory::kDuration) {
      // The wall clock is measured exactly.
      counters[m] = runtime;
      continue;
    }
    const double log_noise =
        in.sigmas[m] * rngdist::normal(rng) +
        kCategoryNoise * z_category[static_cast<std::size_t>(category)] +
        kGlobalNoise * z_global;
    counters[m] = counters[m] * std::exp(log_noise) * runtime;
  }
  return runtime;
}

}  // namespace

RunRecord simulate_run(const BenchmarkInfo& bench, const SystemModel& system,
                       Rng& rng) {
  return simulate_run(bench, system, SystemCondition{}, rng);
}

RunRecord simulate_run(const BenchmarkInfo& bench, const SystemModel& system,
                       const SystemCondition& cond, Rng& rng) {
  RunRecord run;
  run.counters.resize(system.metric_count());
  run.runtime_seconds = simulate_into(run_inputs(bench, system, cond), rng,
                                      run.mode, run.counters);
  return run;
}

BenchmarkRuns measure_benchmark(std::size_t benchmark_index,
                                const SystemModel& system, std::size_t n_runs,
                                std::uint64_t seed) {
  return measure_benchmark(benchmark_index, system, SystemCondition{}, n_runs,
                           seed);
}

BenchmarkRuns measure_benchmark(std::size_t benchmark_index,
                                const SystemModel& system,
                                const SystemCondition& cond,
                                std::size_t n_runs, std::uint64_t seed) {
  VARPRED_CHECK_ARG(benchmark_index < benchmark_table().size(),
                    "benchmark index out of range");
  VARPRED_CHECK_ARG(n_runs >= 1, "need at least one run");
  const auto& bench = benchmark_table()[benchmark_index];
  obs::Span span("measure.benchmark");
  VARPRED_OBS_COUNT("measure.runs_simulated", n_runs);

  BenchmarkRuns out;
  out.benchmark = benchmark_index;
  out.runtimes.resize(n_runs);
  out.modes.resize(n_runs);
  out.counters = ml::Matrix(n_runs, system.metric_count());

  const RunInputs inputs = run_inputs(bench, system, cond);
  Rng rng(seed_combine(seed, seed_combine(stable_hash(system.name()),
                                          stable_hash(bench.full_name()))));
  for (std::size_t r = 0; r < n_runs; ++r) {
    out.runtimes[r] =
        simulate_into(inputs, rng, out.modes[r], out.counters.row(r));
  }
  return out;
}

Corpus build_corpus(const SystemModel& system, std::size_t n_runs,
                    std::uint64_t seed) {
  obs::Span span("measure.build_corpus", obs::Span::kPoolStats);
  Corpus corpus;
  corpus.system = &system;
  corpus.benchmarks.resize(benchmark_table().size());
  parallel_for(benchmark_table().size(), [&](std::size_t b) {
    corpus.benchmarks[b] = measure_benchmark(b, system, n_runs, seed);
  });
  return corpus;
}

ConfigCorpus build_config_corpus(const SystemModel& system,
                                 std::span<const SystemConfig> configs,
                                 std::span<const std::size_t> benchmarks,
                                 std::size_t n_runs, std::uint64_t seed) {
  VARPRED_CHECK_ARG(!configs.empty(), "need at least one config");
  VARPRED_CHECK_ARG(!benchmarks.empty(), "need at least one benchmark");
  obs::Span span("measure.build_config_corpus", obs::Span::kPoolStats);
  ConfigCorpus corpus;
  corpus.system = &system;
  corpus.configs.assign(configs.begin(), configs.end());
  corpus.benchmarks.assign(benchmarks.begin(), benchmarks.end());
  corpus.probe_runs.resize(benchmarks.size());
  corpus.cell_runs.assign(configs.size(),
                          std::vector<BenchmarkRuns>(benchmarks.size()));

  // Per-cell seeds hang off the config *name*, not its index, so the cell
  // contents survive re-sampling the config subset. The neutral config's
  // cells reuse the bare seed: bit-identical to measure_benchmark on the
  // legacy path (and to the probe runs, which double as its targets).
  std::vector<SystemCondition> conditions;
  std::vector<std::uint64_t> config_seeds;
  conditions.reserve(configs.size());
  config_seeds.reserve(configs.size());
  for (const SystemConfig& config : corpus.configs) {
    conditions.push_back(config.condition());
    config_seeds.push_back(config.neutral()
                               ? seed
                               : seed_combine(seed,
                                              stable_hash(config.name())));
  }

  const std::size_t cells = configs.size() * benchmarks.size();
  parallel_for(cells + benchmarks.size(), [&](std::size_t i) {
    if (i < benchmarks.size()) {
      corpus.probe_runs[i] =
          measure_benchmark(corpus.benchmarks[i], system, n_runs, seed);
      return;
    }
    const std::size_t cell = i - benchmarks.size();
    const std::size_t c = cell / benchmarks.size();
    const std::size_t b = cell % benchmarks.size();
    corpus.cell_runs[c][b] = measure_benchmark(
        corpus.benchmarks[b], system, conditions[c], n_runs, config_seeds[c]);
  });
  return corpus;
}

}  // namespace varpred::measure
