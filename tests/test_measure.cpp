// Tests for the measurement simulator: registry integrity (Tables I-III),
// determinism, runtime-distribution properties, counter-generation
// semantics, and corpus construction.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <set>

#include <vector>

#include "measure/benchmarks.hpp"
#include "measure/corpus.hpp"
#include "measure/metrics_catalog.hpp"
#include "measure/sysconfig.hpp"
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
  EXPECT_THROW(SystemModel::by_name("cloud"), std::invalid_argument);
  // Unknown-name errors spell out every valid name: config-bearing lookups
  // ("varpred tune --system=...") surface this message to users directly.
  try {
    SystemModel::by_name("sparc");
    FAIL() << "by_name must throw on an unknown system";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown system: sparc"), std::string::npos) << msg;
    for (const char* name : {"intel", "amd", "arm"}) {
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
// Conditioned system models: the operating conditions that SystemConfig
// knobs map onto.

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
  const auto& system = SystemModel::intel();
  const auto& bench = benchmark_table()[20];
  SystemCondition stressed;
  stressed.jitter_scale = 2.0;
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
      << "2x jitter must visibly widen relative spread";
}

using rngdist::Component;

bool bit_equal(const Component& a, const Component& b) {
  return a.family == b.family && a.weight == b.weight && a.p1 == b.p1 &&
         a.p2 == b.p2 && a.shift == b.shift && a.scale == b.scale;
}

// Calls check(system, bench, neutral, conditioned) with the component lists
// of the neutral and the `cond` mixture, for every paper system and
// benchmark.
template <class Check>
void for_each_conditioned(const SystemCondition& cond, Check check) {
  for (const SystemModel* system : SystemModel::all_systems()) {
    for (const auto& bench : benchmark_table()) {
      SCOPED_TRACE(system->name() + " " + bench.full_name());
      check(*system, bench, system->runtime_distribution(bench).components(),
            system->runtime_distribution(bench, cond).components());
    }
  }
}

using Components = std::vector<Component>;

TEST(SystemCondition, HalfSpeedDoublesEveryTimeScaleExactly) {
  // Halving the machine speed doubles the base runtime; every location and
  // spread parameter is a product with it, so each doubles bit for bit
  // (scaling by a power of two is exact) while weights and shapes stay.
  SystemCondition throttled;
  throttled.speed_scale = 0.5;
  for_each_conditioned(throttled, [](const SystemModel&, const BenchmarkInfo&,
                                     const Components& n,
                                     const Components& c) {
    ASSERT_EQ(c.size(), n.size());
    for (std::size_t i = 0; i < n.size(); ++i) {
      Component expected = n[i];
      if (expected.family != rngdist::Family::kGamma) expected.p1 *= 2.0;
      expected.p2 *= 2.0;
      expected.shift *= 2.0;
      EXPECT_TRUE(bit_equal(c[i], expected)) << "component " << i;
    }
  });
}

TEST(SystemCondition, TailScaleMovesOnlyTheHeavyTail) {
  SystemCondition heavy;
  heavy.tail_scale = 2.0;
  int tails_seen = 0;
  for_each_conditioned(heavy, [&](const SystemModel&, const BenchmarkInfo&,
                                  const Components& n, const Components& c) {
    ASSERT_EQ(c.size(), n.size());
    const bool has_tail = n.back().family == rngdist::Family::kGamma;
    for (std::size_t i = 0; i + has_tail < n.size(); ++i) {
      EXPECT_TRUE(bit_equal(c[i], n[i])) << "component " << i;
    }
    if (!has_tail) return;
    ++tails_seen;
    EXPECT_GE(c.back().weight, n.back().weight);
    EXPECT_EQ(c.back().p2, 2.0 * n.back().p2);
    EXPECT_EQ(c.back().shift, n.back().shift);
  });
  EXPECT_GT(tails_seen, 0);
}

TEST(SystemCondition, ZeroNumaScaleRemovesThePlacementModes) {
  // With no NUMA sensitivity no benchmark crosses the bimodal threshold.
  // Benchmarks below it on the neutral machine are untouched; those with
  // the two-mode NUMA split lose it.
  SystemCondition interleaved;
  interleaved.numa_scale = 0.0;
  int strongly_split = 0;
  for_each_conditioned(interleaved, [&](const SystemModel& system,
                                        const BenchmarkInfo& bench,
                                        const Components& n,
                                        const Components& c) {
    EXPECT_EQ(c[0].p1, n[0].p1);
    EXPECT_EQ(c[0].p2, n[0].p2);
    const double sensitivity = bench.traits.numa * system.numa_factor();
    if (sensitivity <= 0.45) {
      ASSERT_EQ(c.size(), n.size());
      for (std::size_t i = 0; i < n.size(); ++i) {
        EXPECT_TRUE(bit_equal(c[i], n[i])) << "component " << i;
      }
    } else if (sensitivity > 0.70) {
      ++strongly_split;
      EXPECT_LT(c.size(), n.size());
    }
  });
  EXPECT_GT(strongly_split, 0);
}

TEST(SystemCondition, JitterScaleWidensTheMainModeAroundTheSameMean) {
  // The main mode's spread only stays put for the quietest codes, whose
  // coefficient of variation sits on the lower clamp.
  SystemCondition jittery;
  jittery.jitter_scale = 3.0;
  int widened = 0;
  for_each_conditioned(jittery, [&](const SystemModel&, const BenchmarkInfo&,
                                    const Components& n,
                                    const Components& c) {
    EXPECT_EQ(c[0].p1, n[0].p1);
    EXPECT_GE(c[0].p2, n[0].p2);
    widened += c[0].p2 > n[0].p2;
  });
  EXPECT_GT(widened, static_cast<int>(benchmark_table().size()));
}

// FNV-1a over the little-endian bytes of 64-bit words.
class Fnv1a {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (word >> (8 * byte)) & 0xFFU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

TEST(SystemCondition, GridConditionedMixtureDigests) {
  // Pins, bit for bit and per paper system, every conditioned ground-truth
  // mixture the tuner's config corpus can draw from (all 60 benchmarks x
  // all 72 stock configs), plus a seeded run stream under one non-neutral
  // config (every condition factor scaled).
  struct Expected {
    const char* system;
    std::uint64_t mixtures;
    std::uint64_t runs;
  };
  constexpr Expected kExpected[] = {
      {"intel", 0x01a7648a34387368ULL, 0x40d33b7e2313866fULL},
      {"amd", 0x3e987a31350f0212ULL, 0x7141793c6e4d16fcULL},
      {"arm", 0x0a194c8fac70cbf0ULL, 0xe9f9a3e6e8b266e8ULL},
  };
  const auto configs = SystemConfig::grid();
  ASSERT_EQ(configs.size(), 72u);
  ASSERT_EQ(benchmark_table().size(), 60u);
  const SystemConfig stressed{Governor::kPowersave, /*smt=*/false,
                              NumaPolicy::kBalancing, /*threads=*/32};
  const auto systems = SystemModel::all_systems();
  ASSERT_EQ(systems.size(), std::size(kExpected));
  for (std::size_t s = 0; s < systems.size(); ++s) {
    const SystemModel& system = *systems[s];
    EXPECT_EQ(system.name(), kExpected[s].system);
    Fnv1a mixtures;
    for (const auto& bench : benchmark_table()) {
      for (const auto& config : configs) {
        const auto mixture =
            system.runtime_distribution(bench, config.condition());
        for (const auto& c : mixture.components()) {
          mixtures.add(static_cast<std::uint64_t>(c.family));
          mixtures.add(c.weight);
          mixtures.add(c.p1);
          mixtures.add(c.p2);
          mixtures.add(c.shift);
          mixtures.add(c.scale);
        }
      }
    }
    Fnv1a runs;
    Rng rng(2024);
    for (std::size_t i = 0; i < 20; ++i) {
      const RunRecord run = simulate_run(benchmark_table()[3 * i], system,
                                         stressed.condition(), rng);
      runs.add(run.runtime_seconds);
      runs.add(static_cast<std::uint64_t>(run.mode));
      for (const double v : run.counters) runs.add(v);
    }
    EXPECT_EQ(mixtures.value(), kExpected[s].mixtures)
        << system.name() << " mixtures 0x" << std::hex << mixtures.value();
    EXPECT_EQ(runs.value(), kExpected[s].runs)
        << system.name() << " runs 0x" << std::hex << runs.value();
  }
}

TEST(EnumNames, OutOfRangeMetricCategoryThrows) {
  EXPECT_THROW(to_string(static_cast<MetricCategory>(99)),
               std::invalid_argument);
}

}  // namespace
}  // namespace varpred::measure
