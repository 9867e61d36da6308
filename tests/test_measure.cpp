// Tests for the measurement simulator: registry integrity (Tables I-III),
// determinism, runtime-distribution properties, counter-generation
// semantics, and corpus construction.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include <vector>

#include "measure/benchmarks.hpp"
#include "measure/corpus.hpp"
#include "measure/fleet.hpp"
#include "measure/metrics_catalog.hpp"
#include "measure/system_model.hpp"
#include "stats/moments.hpp"

namespace varpred::measure {
namespace {

TEST(BenchmarkTable, MatchesPaperInventory) {
  const auto& table = benchmark_table();
  EXPECT_EQ(table.size(), 60u);  // Table I: 9+9+5+8+8+10+11

  std::map<std::string, int> by_suite;
  for (const auto& b : table) ++by_suite[b.suite];
  EXPECT_EQ(by_suite["npb"], 9);
  EXPECT_EQ(by_suite["parsec"], 9);
  EXPECT_EQ(by_suite["specomp"], 5);
  EXPECT_EQ(by_suite["specaccel"], 8);
  EXPECT_EQ(by_suite["parboil"], 8);
  EXPECT_EQ(by_suite["rodinia"], 10);
  EXPECT_EQ(by_suite["mllib"], 11);
}

TEST(BenchmarkTable, NamesUniqueAndLookupWorks) {
  std::set<std::string> names;
  for (const auto& b : benchmark_table()) {
    EXPECT_TRUE(names.insert(b.full_name()).second) << b.full_name();
  }
  EXPECT_EQ(find_benchmark("specomp/376").name, "376");
  EXPECT_EQ(benchmark_index("npb/bt"), 0u);
  EXPECT_THROW(benchmark_index("nope/nope"), std::invalid_argument);
}

TEST(BenchmarkTable, TraitsInRangeAndDeterministic) {
  for (const auto& b : benchmark_table()) {
    for (const double t : b.traits.to_array()) {
      EXPECT_GE(t, 0.0);
      EXPECT_LE(t, 1.0);
    }
    EXPECT_GT(b.base_runtime_seconds, 1.0);
    EXPECT_LT(b.base_runtime_seconds, 200.0);
  }
  // The table is a deterministic function of the registry definition.
  EXPECT_DOUBLE_EQ(benchmark_table()[3].traits.compute,
                   benchmark_table()[3].traits.compute);
  // Story overrides applied.
  EXPECT_GT(find_benchmark("specomp/376").traits.numa, 0.9);
  EXPECT_LT(find_benchmark("npb/bt").traits.numa, 0.1);
  EXPECT_GT(find_benchmark("parsec/streamcluster").traits.iogc, 0.4);
}

TEST(MetricsCatalog, TableSizes) {
  EXPECT_EQ(intel_metrics().size(), 68u);  // Table II
  EXPECT_EQ(amd_metrics().size(), 75u);    // Table III
}

TEST(MetricsCatalog, IdsSequentialAndCategoriesSane) {
  int expect_id = 0;
  for (const auto& m : intel_metrics()) {
    EXPECT_EQ(m.id, expect_id++);
    EXPECT_FALSE(m.name.empty());
  }
  EXPECT_EQ(categorize_metric("dTLB-load-misses"), MetricCategory::kTlb);
  EXPECT_EQ(categorize_metric("branch-misses"), MetricCategory::kBranch);
  EXPECT_EQ(categorize_metric("LLC-loads"), MetricCategory::kCache);
  EXPECT_EQ(categorize_metric("context-switches"), MetricCategory::kOs);
  EXPECT_EQ(categorize_metric("instructions"), MetricCategory::kCompute);
  EXPECT_EQ(categorize_metric("duration_time"), MetricCategory::kDuration);
}

TEST(MetricsCatalog, EachSystemHasExactlyOneDurationMetric) {
  for (const auto* metrics : {&intel_metrics(), &amd_metrics()}) {
    int durations = 0;
    for (const auto& m : *metrics) {
      durations += (m.category == MetricCategory::kDuration);
    }
    EXPECT_EQ(durations, 1);
  }
}

TEST(SystemModel, LookupAndFactors) {
  EXPECT_EQ(SystemModel::intel().name(), "intel");
  EXPECT_EQ(SystemModel::amd().name(), "amd");
  EXPECT_EQ(&SystemModel::by_name("intel"), &SystemModel::intel());
  EXPECT_THROW(SystemModel::by_name("sparc"), std::invalid_argument);
  // Unknown-name errors spell out every valid name: config-bearing lookups
  // ("varpred tune --system=...") surface this message to users directly.
  try {
    SystemModel::by_name("sparc");
    FAIL() << "by_name must throw on an unknown system";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown system: sparc"), std::string::npos) << msg;
    for (const char* name : {"intel", "amd", "arm", "cloud"}) {
      EXPECT_NE(msg.find(name), std::string::npos) << "missing " << name;
    }
  }
  // The AMD system is the "wilder" machine by construction.
  EXPECT_GT(SystemModel::amd().numa_factor(),
            SystemModel::intel().numa_factor());
  EXPECT_GT(SystemModel::amd().jitter_base(),
            SystemModel::intel().jitter_base());
}

TEST(SystemModel, RuntimeDistributionIsDeterministic) {
  const auto& system = SystemModel::intel();
  const auto& bench = find_benchmark("specomp/376");
  const auto a = system.runtime_distribution(bench);
  const auto b = system.runtime_distribution(bench);
  ASSERT_EQ(a.components().size(), b.components().size());
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
  EXPECT_DOUBLE_EQ(a.variance(), b.variance());
}

TEST(SystemModel, StoryBenchmarksHaveTheirShapes) {
  const auto& intel = SystemModel::intel();
  // 376 is multi-modal with the main (first) mode fastest and heaviest.
  const auto m376 = intel.runtime_distribution(find_benchmark("specomp/376"));
  ASSERT_GE(m376.components().size(), 2u);
  EXPECT_GT(m376.components()[0].weight, m376.components()[1].weight);
  EXPECT_LT(m376.components()[0].mean(), m376.components()[1].mean());
  // bt / heartwall are narrow and unimodal.
  for (const char* narrow : {"npb/bt", "rodinia/heartwall"}) {
    const auto mix = intel.runtime_distribution(find_benchmark(narrow));
    EXPECT_EQ(mix.components().size(), 1u) << narrow;
    const double cv = std::sqrt(mix.variance()) / mix.mean();
    EXPECT_LT(cv, 0.004) << narrow;
  }
  // streamcluster carries a heavy right tail component.
  const auto sc =
      intel.runtime_distribution(find_benchmark("parsec/streamcluster"));
  EXPECT_GE(sc.components().size(), 2u);
}

TEST(SystemModel, NumaThresholdAndWilderAmd) {
  // The NUMA-driven mode split is deterministic in traits: benchmarks whose
  // sensitivity crosses a system's threshold are multimodal there. The AMD
  // machine has the higher NUMA factor, so in aggregate it shows at least
  // as many multimodal benchmarks as Intel. (Strict per-benchmark nesting
  // does not hold: each machine may add its own machine-specific mode.)
  const auto& intel = SystemModel::intel();
  const auto& amd = SystemModel::amd();
  int multi_intel = 0;
  int multi_amd = 0;
  for (const auto& bench : benchmark_table()) {
    const bool bi_intel =
        intel.runtime_distribution(bench).components().size() >= 2;
    const bool bi_amd =
        amd.runtime_distribution(bench).components().size() >= 2;
    multi_intel += bi_intel;
    multi_amd += bi_amd;
    // NUMA-threshold rule: crossing Intel's threshold guarantees a split on
    // both machines (Intel's threshold is the stricter one).
    if (bench.traits.numa * intel.numa_factor() > 0.45) {
      EXPECT_TRUE(bi_intel) << bench.full_name();
      EXPECT_TRUE(bi_amd) << bench.full_name();
    }
  }
  EXPECT_GT(multi_amd, multi_intel);
  EXPECT_GT(multi_intel, 5);
}

TEST(SystemModel, ExpectedRatesReactToModeRatio) {
  const auto& system = SystemModel::intel();
  const auto& bench = benchmark_table()[0];
  const auto fast = system.expected_rates(bench, 1.0);
  const auto slow = system.expected_rates(bench, 1.2);
  ASSERT_EQ(fast.size(), system.metric_count());
  // Cache-category rates rise in slow modes; compute-category rates fall.
  bool cache_checked = false;
  bool compute_checked = false;
  for (std::size_t m = 0; m < fast.size(); ++m) {
    const auto category = system.metrics()[m].category;
    if (category == MetricCategory::kCache) {
      EXPECT_GT(slow[m], fast[m]);
      cache_checked = true;
    }
    if (category == MetricCategory::kCompute) {
      EXPECT_LT(slow[m], fast[m]);
      compute_checked = true;
    }
  }
  EXPECT_TRUE(cache_checked);
  EXPECT_TRUE(compute_checked);
}

TEST(Corpus, SimulateRunProducesPlausibleRecord) {
  const auto& system = SystemModel::intel();
  const auto& bench = benchmark_table()[5];
  Rng rng(3);
  const auto run = simulate_run(bench, system, rng);
  EXPECT_GT(run.runtime_seconds, 0.0);
  EXPECT_EQ(run.counters.size(), system.metric_count());
  for (const double c : run.counters) {
    EXPECT_TRUE(std::isfinite(c));
    EXPECT_GE(c, 0.0);
  }
  // duration_time counter accumulates at 1/s: equals the runtime.
  std::size_t duration_idx = 0;
  for (const auto& m : system.metrics()) {
    if (m.category == MetricCategory::kDuration) {
      duration_idx = static_cast<std::size_t>(m.id);
    }
  }
  EXPECT_DOUBLE_EQ(run.counters[duration_idx], run.runtime_seconds);
}

TEST(Corpus, MeasureBenchmarkDeterministicPerSeed) {
  const auto& system = SystemModel::amd();
  const auto a = measure_benchmark(2, system, 50, 99);
  const auto b = measure_benchmark(2, system, 50, 99);
  EXPECT_EQ(a.runtimes, b.runtimes);
  EXPECT_EQ(a.modes, b.modes);
  const auto c = measure_benchmark(2, system, 50, 100);
  EXPECT_NE(a.runtimes, c.runtimes);
}

TEST(Corpus, BuildCorpusCoversAllBenchmarks) {
  const auto corpus = build_corpus(SystemModel::intel(), 40, 7);
  ASSERT_EQ(corpus.benchmarks.size(), benchmark_table().size());
  for (std::size_t b = 0; b < corpus.benchmarks.size(); ++b) {
    EXPECT_EQ(corpus.benchmarks[b].benchmark, b);
    EXPECT_EQ(corpus.benchmarks[b].run_count(), 40u);
    EXPECT_EQ(corpus.benchmarks[b].counters.rows(), 40u);
    EXPECT_EQ(corpus.benchmarks[b].counters.cols(), 68u);
  }
  EXPECT_EQ(&corpus.runs_of("npb/cg"), &corpus.benchmarks[1]);
}

TEST(Corpus, SampledMomentsMatchMixtureTheory) {
  const auto& system = SystemModel::intel();
  const auto& bench = find_benchmark("specomp/376");
  const auto mixture = system.runtime_distribution(bench);
  const auto runs = measure_benchmark(benchmark_index("specomp/376"), system,
                                      4000, 11);
  const auto m = stats::compute_moments(runs.runtimes);
  EXPECT_NEAR(m.mean, mixture.mean(), 0.01 * mixture.mean());
  EXPECT_NEAR(m.stddev, std::sqrt(mixture.variance()),
              0.08 * std::sqrt(mixture.variance()));
}

TEST(Corpus, RelativeTimesHaveUnitMean) {
  const auto runs = measure_benchmark(7, SystemModel::intel(), 200, 5);
  const auto rel = runs.relative_times();
  EXPECT_NEAR(stats::mean(rel), 1.0, 1e-12);
}

TEST(Corpus, ShapeDiversityAcrossBenchmarks) {
  // The corpus must contain narrow, wide, multi-modal, and long-tailed
  // shapes (the premise of Fig. 3).
  const auto corpus = build_corpus(SystemModel::intel(), 400, 7);
  int narrow = 0;
  int wide = 0;
  int tailed = 0;
  for (const auto& runs : corpus.benchmarks) {
    const auto m = stats::compute_moments(runs.relative_times());
    narrow += (m.stddev < 0.004);
    wide += (m.stddev > 0.02);
    tailed += (m.skewness > 1.0);
  }
  EXPECT_GE(narrow, 5);
  EXPECT_GE(wide, 5);
  EXPECT_GE(tailed, 5);
}

// ---------------------------------------------------------------------------
// Time-varying system models: the cloud guest, conditioned distributions,
// and the fleet condition trajectories.

TEST(CloudSystem, IsAVirtualSystemNotAVendorSystem) {
  // The UC2 vendor set stays {intel, amd, arm}; cloud rides alongside.
  EXPECT_EQ(SystemModel::all_systems().size(), 3u);
  const auto virt = SystemModel::virtual_systems();
  ASSERT_EQ(virt.size(), 1u);
  EXPECT_EQ(virt[0]->name(), "cloud");
  EXPECT_EQ(&SystemModel::by_name("cloud"), &SystemModel::cloud());
  EXPECT_GT(SystemModel::cloud().metric_count(), 30u);
  // Guest-visible virtualization counters are part of the catalog.
  bool has_steal = false;
  for (const auto& m : cloud_metrics()) {
    has_steal |= m.name == "steal-clock";
  }
  EXPECT_TRUE(has_steal);
}

TEST(SystemCondition, NeutralConditionIsBitIdenticalToLegacyPath) {
  // The conditioned overloads multiply by exactly 1.0 on the neutral path
  // and append no RNG draws, so runs must match the legacy API bit for
  // bit — this is what keeps every seeded corpus in the repo unchanged.
  const auto& system = SystemModel::intel();
  const auto& bench = benchmark_table()[13];
  Rng legacy_rng(99);
  Rng cond_rng(99);
  for (int i = 0; i < 50; ++i) {
    const RunRecord legacy = simulate_run(bench, system, legacy_rng);
    const RunRecord cond =
        simulate_run(bench, system, SystemCondition{}, cond_rng);
    EXPECT_EQ(legacy.runtime_seconds, cond.runtime_seconds);
    EXPECT_EQ(legacy.mode, cond.mode);
    EXPECT_EQ(legacy.counters, cond.counters);
  }
}

TEST(SystemCondition, JitterScaleWidensTheDistribution) {
  const auto& system = SystemModel::cloud();
  const auto& bench = benchmark_table()[20];
  SystemCondition stressed;
  stressed.jitter_scale = 2.0;
  stressed.interference = 0.5;
  Rng rng_a(5);
  Rng rng_b(5);
  std::vector<double> neutral_times;
  std::vector<double> stressed_times;
  for (int i = 0; i < 400; ++i) {
    neutral_times.push_back(
        simulate_run(bench, system, SystemCondition{}, rng_a).runtime_seconds);
    stressed_times.push_back(
        simulate_run(bench, system, stressed, rng_b).runtime_seconds);
  }
  const auto n = stats::compute_moments(neutral_times);
  const auto s = stats::compute_moments(stressed_times);
  EXPECT_GT(s.stddev / s.mean, 1.5 * n.stddev / n.mean)
      << "2x jitter + interference must visibly widen relative spread";
}

TEST(FleetSystem, NeighborTraceSwitchesRegimeDeterministically) {
  FleetTraceConfig config;
  config.kind = DriftKind::kNoisyNeighbor;
  config.seed = 42;
  const FleetSystem fleet(SystemModel::cloud(), config);
  ASSERT_EQ(fleet.regime_changes().size(), 1u);
  const double onset = fleet.regime_changes()[0];
  EXPECT_GT(onset, 0.0);
  EXPECT_LT(onset, config.duration_seconds);
  EXPECT_TRUE(fleet.condition_at(onset * 0.5).neutral());
  const SystemCondition after = fleet.condition_at(onset + 1.0);
  EXPECT_DOUBLE_EQ(after.jitter_scale, config.severity);
  EXPECT_GT(after.interference, 0.0);
  // Still in force at the end of the trace (the neighbor stays).
  EXPECT_FALSE(fleet.condition_at(config.duration_seconds - 1.0).neutral());

  // Same (system, config) => same geometry and same simulated runs.
  const FleetSystem again(SystemModel::cloud(), config);
  EXPECT_EQ(fleet.regime_changes()[0], again.regime_changes()[0]);
  Rng r1(3);
  Rng r2(3);
  const auto& bench = benchmark_table()[7];
  const RunRecord a = simulate_run_at(bench, fleet, onset + 100.0, r1);
  const RunRecord b = simulate_run_at(bench, again, onset + 100.0, r2);
  EXPECT_EQ(a.runtime_seconds, b.runtime_seconds);
  EXPECT_EQ(a.counters, b.counters);
}

TEST(FleetSystem, StationaryTraceStaysNeutral) {
  FleetTraceConfig config;
  config.kind = DriftKind::kStationary;
  const FleetSystem fleet(SystemModel::intel(), config);
  EXPECT_TRUE(fleet.regime_changes().empty());
  for (double t = 0.0; t < config.duration_seconds; t += 9000.0) {
    EXPECT_TRUE(fleet.condition_at(t).neutral()) << "t=" << t;
  }
}

TEST(FleetSystem, ThermalRampIsSmoothAndMonotone) {
  FleetTraceConfig config;
  config.kind = DriftKind::kThermalRamp;
  config.seed = 11;
  const FleetSystem fleet(SystemModel::amd(), config);
  ASSERT_EQ(fleet.regime_changes().size(), 1u);
  double last = 1.0;
  for (double t = 0.0; t <= config.duration_seconds; t += 1800.0) {
    const double jitter = fleet.condition_at(t).jitter_scale;
    EXPECT_GE(jitter, last - 1e-12) << "ramp must not retreat, t=" << t;
    last = jitter;
  }
  EXPECT_NEAR(last, config.severity, 1e-9)
      << "ramp must reach full severity by trace end";
}

TEST(FleetSystem, BurstableTraceCyclesAfterExhaustion) {
  FleetTraceConfig config;
  config.kind = DriftKind::kBurstable;
  config.seed = 19;
  const FleetSystem fleet(SystemModel::cloud(), config);
  ASSERT_EQ(fleet.regime_changes().size(), 1u);
  const double onset = fleet.regime_changes()[0];
  EXPECT_TRUE(fleet.condition_at(onset * 0.5).neutral());
  // After exhaustion the trace alternates: both throttled and recovery
  // conditions must occur.
  bool throttled = false;
  bool recovering = false;
  for (double t = onset; t < config.duration_seconds; t += 600.0) {
    const SystemCondition c = fleet.condition_at(t);
    if (c.speed_scale < 1.0) {
      throttled = true;
    } else {
      recovering = true;
    }
  }
  EXPECT_TRUE(throttled);
  EXPECT_TRUE(recovering);
}

TEST(DriftKindNames, RoundTripAndRejectUnknown) {
  DriftKind kind;
  ASSERT_TRUE(parse_drift_kind("neighbor", &kind));
  EXPECT_EQ(kind, DriftKind::kNoisyNeighbor);
  ASSERT_TRUE(parse_drift_kind("stationary", &kind));
  EXPECT_EQ(kind, DriftKind::kStationary);
  ASSERT_TRUE(parse_drift_kind("burstable", &kind));
  EXPECT_EQ(std::string(to_string(kind)), "burstable");
  ASSERT_TRUE(parse_drift_kind("thermal", &kind));
  EXPECT_EQ(kind, DriftKind::kThermalRamp);
  EXPECT_FALSE(parse_drift_kind("volcano", &kind));
}

TEST(EnumNames, OutOfRangeDriftKindThrows) {
  EXPECT_THROW(to_string(static_cast<DriftKind>(99)), std::invalid_argument);
}

TEST(EnumNames, OutOfRangeMetricCategoryThrows) {
  EXPECT_THROW(to_string(static_cast<MetricCategory>(99)),
               std::invalid_argument);
}

}  // namespace
}  // namespace varpred::measure
