// Tests for configuration-space prediction and variability-aware tuning:
// SystemConfig knob -> condition mapping (with the neutral config
// bit-identical to the legacy unconditioned path), stratified config
// sampling, the config corpus, the config-aware surrogate, and the
// src/tune search loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "common/check.hpp"
#include "core/configpred.hpp"
#include "measure/benchmarks.hpp"
#include "measure/corpus.hpp"
#include "measure/sysconfig.hpp"
#include "measure/system_model.hpp"
#include "tune/tuner.hpp"

namespace varpred {
namespace {

using measure::Governor;
using measure::NumaPolicy;
using measure::SystemConfig;

TEST(SystemConfig, NeutralMapsToNeutralCondition) {
  const SystemConfig neutral;
  EXPECT_TRUE(neutral.neutral());
  const auto cond = neutral.condition();
  EXPECT_EQ(cond.jitter_scale, 1.0);
  EXPECT_EQ(cond.tail_scale, 1.0);
  EXPECT_EQ(cond.speed_scale, 1.0);
  EXPECT_EQ(cond.numa_scale, 1.0);
}

TEST(SystemConfig, KnobsMoveTheExpectedFactors) {
  SystemConfig c;
  c.governor = Governor::kOndemand;
  EXPECT_GT(c.condition().jitter_scale, 1.0);
  EXPECT_LT(c.condition().speed_scale, 1.0);
  c.governor = Governor::kPowersave;
  EXPECT_GT(c.condition().tail_scale, 1.0);
  EXPECT_LT(c.condition().speed_scale, 0.9);

  SystemConfig no_smt;
  no_smt.smt = false;
  EXPECT_LT(no_smt.condition().jitter_scale, 1.0);

  SystemConfig interleave;
  interleave.numa = NumaPolicy::kInterleave;
  EXPECT_LT(interleave.condition().numa_scale, 1.0);

  SystemConfig few_threads;
  few_threads.threads = 16;
  EXPECT_LT(few_threads.condition().speed_scale, 1.0);
  EXPECT_LT(few_threads.condition().jitter_scale, 1.0);

  SystemConfig bad;
  bad.threads = 0;
  EXPECT_THROW(bad.condition(), std::invalid_argument);
  bad.threads = SystemConfig::kMaxThreads + 1;
  EXPECT_THROW(bad.condition(), std::invalid_argument);
}

TEST(SystemConfig, NameParseRoundTripAndStrictness) {
  for (const auto& config : SystemConfig::grid()) {
    EXPECT_EQ(SystemConfig::parse(config.name()), config) << config.name();
  }
  EXPECT_THROW(SystemConfig::parse(""), std::invalid_argument);
  EXPECT_THROW(SystemConfig::parse("gov=performance"),
               std::invalid_argument);  // missing fields
  EXPECT_THROW(
      SystemConfig::parse("gov=turbo,smt=on,numa=local,threads=64"),
      std::invalid_argument);
  EXPECT_THROW(
      SystemConfig::parse("gov=performance,smt=maybe,numa=local,threads=64"),
      std::invalid_argument);
  EXPECT_THROW(
      SystemConfig::parse("gov=performance,smt=on,numa=local,threads=0"),
      std::invalid_argument);
  EXPECT_THROW(
      SystemConfig::parse("gov=performance,smt=on,numa=local,threads=9x"),
      std::invalid_argument);
  EXPECT_THROW(SystemConfig::parse(
                   "gov=performance,smt=on,numa=local,threads=64,extra=1"),
               std::invalid_argument);
}

TEST(SystemConfig, GridShapeAndFeatureVector) {
  const auto grid = SystemConfig::grid();
  EXPECT_EQ(grid.size(), 72u);  // 3 x 2 x 3 x 4
  EXPECT_TRUE(grid[0].neutral());
  std::set<std::string> names;
  for (const auto& config : grid) {
    EXPECT_TRUE(names.insert(config.name()).second) << config.name();
    const auto f = config.to_features();
    EXPECT_EQ(f.size(), SystemConfig::kFeatureCount);
    for (const double x : f) {
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, 1.0);
    }
  }
  EXPECT_EQ(SystemConfig::feature_names().size(), SystemConfig::kFeatureCount);
  // Neutral maps to the all-baseline feature vector (ones only for smt and
  // the full thread fraction).
  const auto nf = SystemConfig{}.to_features();
  EXPECT_EQ(nf, (std::vector<double>{0.0, 0.0, 1.0, 0.0, 0.0, 1.0}));
}

TEST(SystemConfig, SampleCoversEveryKnobLevelAndKeepsNeutral) {
  const auto grid = SystemConfig::grid();
  const auto sampled = measure::sample_configs(grid, 10, 7);
  EXPECT_EQ(sampled.size(), 10u);
  EXPECT_EQ(sampled, measure::sample_configs(grid, 10, 7));  // deterministic

  std::set<Governor> governors;
  std::set<bool> smt;
  std::set<NumaPolicy> numa;
  std::set<std::size_t> threads;
  bool has_neutral = false;
  std::set<std::string> names;
  for (const auto& config : sampled) {
    governors.insert(config.governor);
    smt.insert(config.smt);
    numa.insert(config.numa);
    threads.insert(config.threads);
    has_neutral = has_neutral || config.neutral();
    EXPECT_TRUE(names.insert(config.name()).second) << config.name();
  }
  EXPECT_EQ(governors.size(), 3u);
  EXPECT_EQ(smt.size(), 2u);
  EXPECT_EQ(numa.size(), 3u);
  EXPECT_EQ(threads.size(), 4u);
  EXPECT_TRUE(has_neutral);

  // Even a single-config sample keeps the neutral anchor.
  const auto one = measure::sample_configs(grid, 1, 99);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_TRUE(one[0].neutral());

  EXPECT_THROW(measure::sample_configs(grid, 0, 7), std::invalid_argument);
  EXPECT_THROW(measure::sample_configs(grid, grid.size() + 1, 7),
               std::invalid_argument);
}

// The acceptance-criterion identity: a neutral SystemConfig reproduces the
// legacy unconditioned path bit-for-bit, for both the analytic mixture and
// the measured runs.
TEST(SystemConfig, NeutralConfigBitIdenticalToLegacyPath) {
  const auto& system = measure::SystemModel::intel();
  const auto& bench = measure::find_benchmark("parsec/streamcluster");
  const auto cond = SystemConfig{}.condition();

  Rng legacy_rng(1234);
  Rng config_rng(1234);
  const auto legacy =
      system.runtime_distribution(bench).sample_many(legacy_rng, 500);
  const auto conditioned =
      system.runtime_distribution(bench, cond).sample_many(config_rng, 500);
  ASSERT_EQ(legacy.size(), conditioned.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(legacy[i], conditioned[i]) << "draw " << i;
  }

  const std::size_t b = measure::benchmark_index("npb/bt");
  const auto plain = measure::measure_benchmark(b, system, 50, 42);
  const auto neutral = measure::measure_benchmark(b, system, cond, 50, 42);
  ASSERT_EQ(plain.run_count(), neutral.run_count());
  for (std::size_t r = 0; r < plain.run_count(); ++r) {
    EXPECT_EQ(plain.runtimes[r], neutral.runtimes[r]) << "run " << r;
    EXPECT_EQ(plain.modes[r], neutral.modes[r]) << "run " << r;
  }
  EXPECT_EQ(plain.counters.data(), neutral.counters.data());
}

// Interleaved NUMA placement suppresses the bimodal split: on a
// NUMA-dominated benchmark its true variability is well below neutral's.
TEST(SystemConfig, InterleaveSuppressesNumaBimodality) {
  const auto& system = measure::SystemModel::intel();
  const std::size_t b = measure::benchmark_index("specomp/376");
  SystemConfig interleave;
  interleave.numa = NumaPolicy::kInterleave;
  const double neutral_sd =
      tune::true_objective(system, b, SystemConfig{}, 20000, 7);
  const double interleave_sd =
      tune::true_objective(system, b, interleave, 20000, 7);
  EXPECT_LT(interleave_sd, 0.75 * neutral_sd);
}

TEST(ConfigCorpus, DeterministicAndNeutralCellsMatchProbes) {
  const auto& system = measure::SystemModel::intel();
  const auto grid = SystemConfig::grid();
  const auto configs = measure::sample_configs(grid, 4, 7);
  const std::vector<std::size_t> benchmarks = {0, 5, 21};
  const auto corpus =
      measure::build_config_corpus(system, configs, benchmarks, 40, 7);
  EXPECT_EQ(corpus.config_count(), 4u);
  EXPECT_EQ(corpus.benchmark_count(), 3u);
  ASSERT_EQ(corpus.probe_runs.size(), 3u);
  ASSERT_EQ(corpus.cell_runs.size(), 4u);

  // Rebuild: cell seeds hang off (seed, config name, benchmark), so the
  // corpus is reproducible and subset-independent.
  const auto again =
      measure::build_config_corpus(system, configs, benchmarks, 40, 7);
  for (std::size_t c = 0; c < corpus.config_count(); ++c) {
    for (std::size_t b = 0; b < corpus.benchmark_count(); ++b) {
      EXPECT_EQ(corpus.cell_runs[c][b].runtimes,
                again.cell_runs[c][b].runtimes);
    }
  }

  // The neutral config's cells are the probe runs themselves.
  for (std::size_t c = 0; c < corpus.config_count(); ++c) {
    if (!corpus.configs[c].neutral()) continue;
    for (std::size_t b = 0; b < corpus.benchmark_count(); ++b) {
      EXPECT_EQ(corpus.cell_runs[c][b].runtimes,
                corpus.probe_runs[b].runtimes);
    }
  }
}

TEST(VariabilityObjective, ScaleFreeAndStrict) {
  const std::vector<double> a = {1.0, 1.1, 0.9, 1.05, 0.95};
  std::vector<double> scaled;
  for (const double x : a) scaled.push_back(3.7 * x);
  EXPECT_NEAR(tune::variability_objective(a),
              tune::variability_objective(scaled), 1e-12);
  const std::vector<double> flat = {2.0, 2.0, 2.0, 2.0};
  EXPECT_EQ(tune::variability_objective(flat), 0.0);
  EXPECT_THROW(tune::variability_objective({}), std::invalid_argument);
  const std::vector<double> single = {1.0};
  EXPECT_THROW(tune::variability_objective(single), std::invalid_argument);
}

TEST(Tuner, ExhaustiveSearchFindsMeasuredBest) {
  const auto& system = measure::SystemModel::intel();
  const std::size_t target = measure::benchmark_index("parsec/streamcluster");
  const auto grid = SystemConfig::grid();
  const std::vector<SystemConfig> space(grid.begin(), grid.begin() + 6);
  const auto result = tune::exhaustive_search(system, target, space, 40, 7);
  ASSERT_EQ(result.objectives.size(), space.size());
  EXPECT_EQ(result.runs_spent, space.size() * 40);
  const auto best = std::min_element(result.objectives.begin(),
                                     result.objectives.end());
  EXPECT_EQ(result.best,
            static_cast<std::size_t>(best - result.objectives.begin()));
  // Deterministic per seed.
  EXPECT_EQ(tune::exhaustive_search(system, target, space, 40, 7).objectives,
            result.objectives);
}

// End-to-end at test scale: train a surrogate on a small config corpus,
// tune the held-out target, and check the search contract — budget
// respected, winner measured, candidates ranked by prediction.
TEST(Tuner, SearchContractHoldsEndToEnd) {
  const auto& system = measure::SystemModel::intel();
  const std::size_t target = measure::benchmark_index("parsec/streamcluster");
  const auto grid = SystemConfig::grid();
  const auto configs = measure::sample_configs(grid, 6, 7);
  std::vector<std::size_t> benchmarks;
  for (std::size_t b = 0; b < 8; ++b) {
    if (b != target) benchmarks.push_back(b);
  }
  const auto corpus =
      measure::build_config_corpus(system, configs, benchmarks, 60, 7);

  core::ConfigAwareConfig pconfig;
  core::ConfigAwarePredictor predictor(pconfig);
  predictor.train_all(corpus);
  EXPECT_TRUE(predictor.trained());

  const auto probe =
      measure::measure_benchmark(target, system, pconfig.n_probe_runs, 11);
  std::vector<std::size_t> idx(probe.run_count());
  std::iota(idx.begin(), idx.end(), std::size_t{0});

  // A prediction is a plausible relative-time sample set.
  Rng rng(5);
  const auto samples =
      predictor.predict_distribution(SystemConfig{}, probe, idx, 500, rng);
  ASSERT_EQ(samples.size(), 500u);
  for (const double s : samples) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GT(s, 0.0);
  }

  tune::TunerConfig tconfig;
  tconfig.measure_budget = 240;
  tconfig.surrogate_top = 12;
  tconfig.finalists = 2;
  const auto result =
      tune::tune_config(predictor, system, target, probe, idx, grid, tconfig);
  EXPECT_EQ(result.candidates.size(), grid.size());
  EXPECT_LE(result.runs_spent, tconfig.measure_budget);
  EXPECT_GT(result.runs_spent, 0u);
  for (std::size_t i = 1; i < result.candidates.size(); ++i) {
    EXPECT_LE(result.candidates[i - 1].predicted,
              result.candidates[i].predicted);
  }
  const auto& winner = result.winner();
  EXPECT_TRUE(std::isfinite(winner.measured));
  EXPECT_GT(winner.runs_spent, 0u);
  // The winner is measured-best among all measured candidates.
  for (const auto& cand : result.candidates) {
    if (cand.runs_spent == 0 || std::isnan(cand.measured)) continue;
    EXPECT_GE(cand.measured, winner.measured);
  }
  // Deterministic per (surrogate, space, config).
  const auto again =
      tune::tune_config(predictor, system, target, probe, idx, grid, tconfig);
  EXPECT_EQ(again.winner().config, winner.config);
  EXPECT_EQ(again.runs_spent, result.runs_spent);
}

TEST(ConfigAware, HeldOutEvaluationIsDeterministic) {
  const auto& system = measure::SystemModel::intel();
  const auto grid = SystemConfig::grid();
  const auto configs = measure::sample_configs(grid, 4, 7);
  const std::vector<std::size_t> benchmarks = {0, 5, 21, 33};
  const auto corpus =
      measure::build_config_corpus(system, configs, benchmarks, 60, 7);
  core::ConfigAwareConfig pconfig;
  core::ConfigEvalOptions options;
  options.n_reconstruct = 400;
  const auto eval = core::evaluate_config_aware(corpus, pconfig, options);
  ASSERT_EQ(eval.config_names.size(), configs.size());
  ASSERT_EQ(eval.ks.size(), configs.size());
  for (const double ks : eval.ks) {
    EXPECT_GE(ks, 0.0);
    EXPECT_LE(ks, 1.0);
  }
  const auto again = core::evaluate_config_aware(corpus, pconfig, options);
  EXPECT_EQ(eval.ks, again.ks);
}

TEST(EnumNames, OutOfRangeGovernorThrows) {
  EXPECT_THROW(measure::to_string(static_cast<Governor>(99)), CheckError);
}

TEST(EnumNames, OutOfRangeNumaPolicyThrows) {
  EXPECT_THROW(measure::to_string(static_cast<NumaPolicy>(99)), CheckError);
}

}  // namespace
}  // namespace varpred
