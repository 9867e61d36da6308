#include "tune/tuner.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"
#include "stats/ecdf.hpp"
#include "stats/moments.hpp"

namespace varpred::tune {
namespace {

// Measurement stream of one (system, config, benchmark) triple. The base
// seed separates the tuner's own runs from corpus and exhaustive runs.
Rng measure_rng(const measure::SystemModel& system,
                const measure::BenchmarkInfo& bench,
                const measure::SystemConfig& config, std::uint64_t seed) {
  return Rng(seed_combine(
      seed, seed_combine(stable_hash(system.name()) ^
                             stable_hash(bench.full_name()),
                         stable_hash(config.name()))));
}

const measure::BenchmarkInfo& bench_at(std::size_t benchmark_index) {
  VARPRED_CHECK_ARG(benchmark_index < measure::benchmark_table().size(),
                    "benchmark index out of range");
  return measure::benchmark_table()[benchmark_index];
}

}  // namespace

double variability_objective(std::span<const double> runtimes) {
  VARPRED_CHECK_ARG(runtimes.size() >= 2,
                    "variability objective needs at least two runtimes");
  // Relative standard deviation. A tail quantile (p99-p50) would target
  // the same phenomenon but needs thousands of runs before config-sized
  // differences rise above estimator noise, which would defeat a tuner
  // whose whole point is a small measurement budget; the sd converges at
  // ~1/sqrt(2n) and still prices in both the NUMA bimodality and the
  // GC/JIT heavy tail.
  return stats::compute_moments(stats::to_relative(runtimes)).stddev;
}

TuneResult tune_config(const core::ConfigAwarePredictor& surrogate,
                       const measure::SystemModel& system,
                       std::size_t benchmark_index,
                       const measure::BenchmarkRuns& probe,
                       std::span<const std::size_t> probe_indices,
                       std::span<const measure::SystemConfig> space,
                       const TunerConfig& config) {
  VARPRED_CHECK_ARG(!space.empty(), "empty config space");
  VARPRED_CHECK_ARG(config.finalists >= 1, "need >= 1 finalist");
  VARPRED_CHECK_ARG(config.eta > 1.0, "halving factor must exceed 1");
  const auto& bench = bench_at(benchmark_index);
  obs::Span span("tune.search");

  // Surrogate screen: predicted objective for every config, zero measured
  // runs, from one probe profile. Per-config reconstruction streams keep
  // the ranking independent of the space's order and of the worker count,
  // so the configs are scored in parallel, each into its own slot.
  TuneResult result;
  result.candidates.resize(space.size());
  const auto profile = surrogate.make_profile(probe, probe_indices);
  parallel_for(space.size(), [&](std::size_t i) {
    Candidate& cand = result.candidates[i];
    cand.config = space[i];
    Rng rng(seed_combine(config.seed,
                         seed_combine(stable_hash("tune-surrogate"),
                                      stable_hash(space[i].name()))));
    const auto samples = surrogate.predict_distribution(
        space[i], profile, config.n_reconstruct, rng);
    cand.predicted = variability_objective(samples);
  });
  std::stable_sort(result.candidates.begin(), result.candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.predicted < b.predicted;
                   });

  // Successive halving over the shortlist. Each surviving candidate keeps
  // its measurement stream and accumulated runtimes across rungs, so
  // deeper rungs refine rather than redraw.
  std::vector<std::size_t> active;
  for (std::size_t i = 0;
       i < std::min(config.surrogate_top, result.candidates.size()); ++i) {
    active.push_back(i);
  }
  std::vector<Rng> streams;
  std::vector<rngdist::Mixture> mixtures;
  std::vector<std::vector<double>> runtimes(result.candidates.size());
  streams.reserve(active.size());
  mixtures.reserve(active.size());
  for (const std::size_t i : active) {
    const auto& cand = result.candidates[i];
    streams.push_back(measure_rng(system, bench, cand.config, config.seed));
    mixtures.push_back(
        system.runtime_distribution(bench, cand.config.condition()));
  }

  const auto measure_runs = [&](std::size_t slot, std::size_t n) {
    const std::size_t i = active[slot];
    auto& collected = runtimes[i];
    for (std::size_t r = 0; r < n; ++r) {
      collected.push_back(mixtures[slot].sample(streams[slot]));
    }
    result.candidates[i].runs_spent += n;
    result.candidates[i].measured = variability_objective(collected);
    result.runs_spent += n;
  };

  // First-rung depth: scale with the budget so the cull decisions rest on
  // usable tail estimates (a p99 from 10 runs is essentially the max).
  std::size_t rung_runs = std::max<std::size_t>(config.rung_runs, 2);
  if (!active.empty()) {
    rung_runs = std::max(rung_runs,
                         config.measure_budget / (4 * active.size()));
  }
  while (active.size() > config.finalists) {
    std::size_t per = rung_runs;
    if (result.runs_spent + active.size() * per > config.measure_budget) {
      per = (config.measure_budget - result.runs_spent) / active.size();
    }
    if (per == 0) break;  // budget exhausted mid-ladder
    for (std::size_t slot = 0; slot < active.size(); ++slot) {
      measure_runs(slot, per);
    }
    // Keep the measured-best ceil(active / eta), never below the finalist
    // count; always drop at least one so the ladder terminates.
    std::size_t keep = static_cast<std::size_t>(
        std::ceil(static_cast<double>(active.size()) / config.eta));
    keep = std::clamp(keep, config.finalists, active.size() - 1);
    std::vector<std::size_t> order(active.size());
    for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return result.candidates[active[a]].measured <
                              result.candidates[active[b]].measured;
                     });
    order.resize(keep);
    std::sort(order.begin(), order.end());  // keep rank order stable
    std::vector<std::size_t> next_active;
    std::vector<Rng> next_streams;
    std::vector<rngdist::Mixture> next_mixtures;
    for (const std::size_t slot : order) {
      next_active.push_back(active[slot]);
      next_streams.push_back(streams[slot]);
      next_mixtures.push_back(std::move(mixtures[slot]));
    }
    active = std::move(next_active);
    streams = std::move(next_streams);
    mixtures = std::move(next_mixtures);
    rung_runs = static_cast<std::size_t>(
        std::ceil(static_cast<double>(rung_runs) * config.eta));
  }

  // Finalist validation: split whatever budget remains evenly.
  for (const std::size_t i : active) result.candidates[i].finalist = true;
  if (result.runs_spent < config.measure_budget && !active.empty()) {
    const std::size_t per =
        (config.measure_budget - result.runs_spent) / active.size();
    if (per > 0) {
      for (std::size_t slot = 0; slot < active.size(); ++slot) {
        measure_runs(slot, per);
      }
    }
  }

  // Winner: measured-best candidate; surrogate-best if the budget never
  // allowed a measurement.
  result.best = active.empty() ? 0 : active.front();
  for (const std::size_t i : active) {
    if (result.candidates[i].measured < result.candidates[result.best].measured) {
      result.best = i;
    }
  }
  VARPRED_OBS_COUNT("tune.searches", 1);
  VARPRED_OBS_COUNT("tune.measured_runs", result.runs_spent);
  return result;
}

ExhaustiveResult exhaustive_search(const measure::SystemModel& system,
                                   std::size_t benchmark_index,
                                   std::span<const measure::SystemConfig> space,
                                   std::size_t runs_per_config,
                                   std::uint64_t seed) {
  VARPRED_CHECK_ARG(!space.empty(), "empty config space");
  VARPRED_CHECK_ARG(runs_per_config >= 2,
                    "exhaustive search needs >= 2 runs per config");
  const auto& bench = bench_at(benchmark_index);
  obs::Span span("tune.exhaustive", obs::Span::kPoolStats);
  ExhaustiveResult result;
  result.objectives.resize(space.size());
  parallel_for(space.size(), [&](std::size_t c) {
    const auto mixture =
        system.runtime_distribution(bench, space[c].condition());
    Rng rng = measure_rng(system, bench, space[c],
                          seed_combine(seed, stable_hash("exhaustive")));
    const auto runs = mixture.sample_many(rng, runs_per_config);
    result.objectives[c] = variability_objective(runs);
  });
  result.runs_spent = space.size() * runs_per_config;
  for (std::size_t c = 1; c < space.size(); ++c) {
    if (result.objectives[c] < result.objectives[result.best]) result.best = c;
  }
  VARPRED_OBS_COUNT("tune.measured_runs", result.runs_spent);
  return result;
}

double true_objective(const measure::SystemModel& system,
                      std::size_t benchmark_index,
                      const measure::SystemConfig& config,
                      std::size_t n_samples, std::uint64_t seed) {
  VARPRED_CHECK_ARG(n_samples >= 2, "need >= 2 samples");
  const auto& bench = bench_at(benchmark_index);
  const auto mixture = system.runtime_distribution(bench, config.condition());
  Rng rng = measure_rng(system, bench, config,
                        seed_combine(seed, stable_hash("true-objective")));
  return variability_objective(mixture.sample_many(rng, n_samples));
}

}  // namespace varpred::tune
