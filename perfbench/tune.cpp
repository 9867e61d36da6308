// tune_sweep: the `varpred tune` flow (variability-aware configuration
// tuning after Xu et al.) for a seeded set of target benchmarks on intel.
//
// Per target, inside the timed body: simulate a 12-config x 16-benchmark x
// 300-run config corpus without the target, fit the GBT surrogate on it
// (one 384-row fit), measure 10 probe runs, and run tune_config over the
// 72-config grid on a 600-run budget. Set-up holds what scores the result:
// the exhaustive search and the ground-truth objective of its optimum.
//
// As in bench_tune, the targets, configs and corpora are seed-stable
// (corpus seed 7), so every seed fits the same surrogates; --seed drives the
// probe runs and the tuner's and the exhaustive search's measurement
// streams.
#include <algorithm>
#include <numeric>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/configpred.hpp"
#include "measure/benchmarks.hpp"
#include "measure/corpus.hpp"
#include "measure/sysconfig.hpp"
#include "tune/tuner.hpp"

namespace perfbench {
namespace {

using namespace varpred;

constexpr std::uint64_t kCorpusSeed = 7;
constexpr std::size_t kTargets = 4;
constexpr std::size_t kConfigs = 12;
constexpr std::size_t kBenchmarks = 16;
constexpr std::size_t kRuns = 300;
constexpr std::size_t kProbeRuns = 10;
constexpr std::size_t kBudget = 600;
constexpr std::size_t kTruthSamples = 20000;

struct Target {
  std::size_t benchmark = 0;
  std::vector<std::size_t> train_benchmarks;
  double optimal = 0.0;  // true objective of the exhaustive optimum
};

struct TuneState {
  std::vector<measure::SystemConfig> grid;
  std::vector<measure::SystemConfig> train_configs;
  std::vector<Target> targets;
};

struct Outcome {
  std::string winner;
  std::size_t runs_spent = 0;
};

// One target's tune flow; `clock` set on traced passes.
Outcome tune_target(const TuneState& s, const Target& t, std::uint64_t seed,
                    LayerClock* clock) {
  const auto& intel = measure::SystemModel::intel();
  const auto corpus = timed(clock, Layer::kSimulate, [&] {
    return measure::build_config_corpus(intel, s.train_configs,
                                        t.train_benchmarks, kRuns, kCorpusSeed);
  });
  core::ConfigAwarePredictor surrogate;
  timed(clock, Layer::kFit, [&] { surrogate.train_all(corpus); });
  const auto probe = timed(clock, Layer::kSimulate, [&] {
    return measure::measure_benchmark(
        t.benchmark, intel, kProbeRuns,
        seed_combine(seed, stable_hash("tune-probe")));
  });
  std::vector<std::size_t> idx(probe.run_count());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  tune::TunerConfig config;
  config.measure_budget = kBudget;
  config.seed = seed;
  const auto result = timed(clock, Layer::kSearch, [&] {
    return tune::tune_config(surrogate, intel, t.benchmark, probe, idx, s.grid,
                             config);
  });
  if (clock != nullptr) {
    std::uint64_t runs = probe.run_count();
    for (const auto& b : corpus.probe_runs) runs += b.run_count();
    for (const auto& row : corpus.cell_runs) {
      for (const auto& b : row) runs += b.run_count();
    }
    clock->runs += runs;
    ++clock->fits;
    clock->tune_runs += result.runs_spent;
  }
  return {result.winner().config.name(), result.runs_spent};
}

}  // namespace

Result run_tune_sweep(const Options& opts) {
  Result result;
  const auto& intel = measure::SystemModel::intel();
  const std::size_t n = measure::benchmark_table().size();
  LayerClock setup_clock;

  TuneState state;
  const std::vector<double> setup_s = repeated_setup(
      state, opts.trace ? &setup_clock : nullptr,
      [&](TuneState& s, LayerClock*) {
        s.grid = measure::SystemConfig::grid();
        s.train_configs =
            measure::sample_configs(s.grid, kConfigs, kCorpusSeed);
        Rng target_rng(seed_combine(kCorpusSeed, stable_hash("tune-targets")));
        for (const std::size_t b :
             core::choose_run_indices(n, kTargets, target_rng)) {
          Target t;
          t.benchmark = b;
          std::vector<std::size_t> others;
          for (std::size_t o = 0; o < n; ++o) {
            if (o != b) others.push_back(o);
          }
          Rng pick_rng(seed_combine(kCorpusSeed,
                                    stable_hash("tune-benchmarks") + b));
          for (const std::size_t p :
               core::choose_run_indices(others.size(), kBenchmarks, pick_rng)) {
            t.train_benchmarks.push_back(others[p]);
          }
          const auto exhaustive =
              tune::exhaustive_search(intel, b, s.grid, kRuns, opts.seed);
          t.optimal = tune::true_objective(intel, b, s.grid[exhaustive.best],
                                           kTruthSamples, kCorpusSeed);
          s.targets.push_back(std::move(t));
        }
      });

  std::vector<Outcome> first;  // first pass's outcome per target
  const auto check = [&](std::size_t i, const Outcome& o) {
    if (first.size() <= i) first.push_back(o);
    result.op(o.winner == first[i].winner &&
              o.runs_spent == first[i].runs_spent);
  };

  std::vector<double> pass_s;
  const double budget = body_seconds(opts);
  auto start = Clock::now();
  while (another_pass(pass_s, 1, start, budget)) {
    const auto t0 = Clock::now();
    std::vector<Outcome> outcomes;
    for (const Target& t : state.targets) {
      outcomes.push_back(tune_target(state, t, opts.seed, nullptr));
    }
    pass_s.push_back(seconds_since(t0));
    for (std::size_t i = 0; i < outcomes.size(); ++i) check(i, outcomes[i]);
  }

  // Score each winner on large-sample ground truth (fixed seed, so the ratio
  // moves only with the winners) against the exhaustive optimum: the ratio
  // is 1 + regret.
  std::vector<double> ratios;
  for (std::size_t i = 0; i < state.targets.size(); ++i) {
    const Target& t = state.targets[i];
    const auto& grid = state.grid;
    const auto it = std::find_if(grid.begin(), grid.end(), [&](const auto& c) {
      return c.name() == first[i].winner;
    });
    const double tuned = tune::true_objective(intel, t.benchmark, *it,
                                              kTruthSamples, kCorpusSeed);
    ratios.push_back(tuned / t.optimal);
    const std::string name = measure::benchmark_table()[t.benchmark].full_name();
    result.labels.push_back({"winner." + name, first[i].winner});
    result.scores.push_back({"ratio." + name, {ratios.back()}});
  }
  const double ratio = std::accumulate(ratios.begin(), ratios.end(), 0.0) /
                       static_cast<double>(ratios.size());
  std::printf("tune objective ratio (1 + regret) %.6f over %zu targets\n",
              ratio, ratios.size());

  const double wall_s = median_of(pass_s);
  if (!opts.trace) {
    result.timings = {{"setup_s", setup_s}, {"wall_s", pass_s}};
    std::printf("passes %zu, pass p50 %.4f s, slowest %.4f s\n",
                pass_s.size(), wall_s, percentile_of(pass_s, 1.0));
    return result;
  }

  LayerClock clock;
  std::vector<double> traced_s;
  const PoolWindow pool;
  start = Clock::now();
  while (another_pass(traced_s, 1, start, budget)) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < state.targets.size(); ++i) {
      const Outcome o = tune_target(state, state.targets[i], opts.seed, &clock);
      if (o.winner != first[i].winner) {
        std::printf("TRACE MISMATCH: tune target %zu\n", i);
      }
      check(i, o);
    }
    traced_s.push_back(seconds_since(t0));
  }
  report_layers(setup_clock, clock, traced_s.size(), result);
  pool.report(traced_s.size(), result);
  result.metric("tune.objective_ratio", ratio, "ratio");
  result.metric("trace.overhead_s", median_of(traced_s) - wall_s, "s");
  return result;
}

}  // namespace perfbench
