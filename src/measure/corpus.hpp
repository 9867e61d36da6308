// Run simulation and corpus construction.
//
// simulate_run() is the `perf stat` substitute: it draws one runtime from
// the benchmark's ground-truth mixture on the system and produces the
// system's full counter vector for that run (expected rates modulated by the
// drawn performance mode, multiplied by run-level lognormal noise, scaled by
// the runtime to yield absolute counts).
//
// build_corpus() measures every Table I benchmark R times (the paper uses
// R = 1000) in parallel, with per-benchmark deterministic seeds.
#pragma once

#include <cstdint>
#include <vector>

#include <span>

#include "common/rng.hpp"
#include "measure/sysconfig.hpp"
#include "measure/system_model.hpp"
#include "ml/matrix.hpp"

namespace varpred::measure {

/// One simulated execution: runtime plus the full counter vector.
struct RunRecord {
  double runtime_seconds = 0.0;
  std::size_t mode = 0;  ///< mixture component that produced the runtime
  std::vector<double> counters;  ///< absolute counts, one per system metric
};

/// All runs of one benchmark on one system.
struct BenchmarkRuns {
  std::size_t benchmark = 0;           ///< index into benchmark_table()
  std::vector<double> runtimes;        ///< seconds, length R
  std::vector<std::size_t> modes;      ///< drawn component per run
  ml::Matrix counters;                 ///< R x metric_count absolute counts

  std::size_t run_count() const { return runtimes.size(); }

  /// Relative times (runtimes normalized by their mean).
  std::vector<double> relative_times() const;
};

/// Full measurement corpus of one system.
struct Corpus {
  const SystemModel* system = nullptr;
  std::vector<BenchmarkRuns> benchmarks;  ///< aligned with benchmark_table()

  const BenchmarkRuns& runs_of(const std::string& full_name) const;
};

/// Simulates a single run. `rng` supplies all run-level randomness.
RunRecord simulate_run(const BenchmarkInfo& bench, const SystemModel& system,
                       Rng& rng);

/// Simulates a single run under an operating condition (see
/// SystemConfig::condition()): the ground-truth mixture is the conditioned
/// one, and counter rates are coupled to the run's mode relative to the
/// conditioned mean. A neutral condition reproduces the unconditioned
/// overload exactly.
RunRecord simulate_run(const BenchmarkInfo& bench, const SystemModel& system,
                       const SystemCondition& cond, Rng& rng);

/// Measures one benchmark `n_runs` times with a deterministic seed derived
/// from (seed, system, benchmark).
BenchmarkRuns measure_benchmark(std::size_t benchmark_index,
                                const SystemModel& system, std::size_t n_runs,
                                std::uint64_t seed);

/// Measures one benchmark under an operating condition. Same seed
/// derivation as the unconditioned overload: under a neutral condition the
/// result is bit-identical to measure_benchmark without a condition.
BenchmarkRuns measure_benchmark(std::size_t benchmark_index,
                                const SystemModel& system,
                                const SystemCondition& cond,
                                std::size_t n_runs, std::uint64_t seed);

/// Measures the full Table I suite on `system` (parallel over benchmarks).
Corpus build_corpus(const SystemModel& system, std::size_t n_runs,
                    std::uint64_t seed);

/// Configuration-sampled measurement corpus (configuration-space
/// prediction): a benchmark subset crossed with a config subset. For every
/// sampled benchmark it holds the *neutral-config* runs (the profile
/// source: at tuning time probe runs exist only under the deployed default
/// config), and for every (config, benchmark) cell the runs under that
/// config's condition (the training targets).
struct ConfigCorpus {
  const SystemModel* system = nullptr;
  std::vector<SystemConfig> configs;       ///< sampled configs
  std::vector<std::size_t> benchmarks;     ///< sampled benchmark indices
  std::vector<BenchmarkRuns> probe_runs;   ///< neutral runs, per benchmark
  /// cell_runs[c][b]: runs of benchmarks[b] under configs[c]'s condition.
  std::vector<std::vector<BenchmarkRuns>> cell_runs;

  std::size_t config_count() const { return configs.size(); }
  std::size_t benchmark_count() const { return benchmarks.size(); }
};

/// Measures `benchmarks x configs` (parallel over cells). Cell seeds are
/// derived from (seed, system, config name, benchmark), so adding or
/// removing configs/benchmarks never perturbs the remaining cells. The
/// neutral config's cells are bit-identical to the legacy unconditioned
/// path under the same (seed, n_runs).
ConfigCorpus build_config_corpus(const SystemModel& system,
                                 std::span<const SystemConfig> configs,
                                 std::span<const std::size_t> benchmarks,
                                 std::size_t n_runs, std::uint64_t seed);

}  // namespace varpred::measure
