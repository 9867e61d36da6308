// System models for the two evaluation machines.
//
// A SystemModel turns a benchmark's latent characteristics into
//   (a) the ground-truth runtime distribution of the benchmark on the
//       system -- a mixture expressing unimodal/bimodal/heavy-tail shapes
//       driven by NUMA sensitivity, synchronization jitter, and GC/JIT
//       activity scaled by system-specific factors; and
//   (b) expected per-second perf-counter rates for the system's metric set,
//       via a semantic response model (category weights) plus a
//       deterministic idiosyncratic component.
//
// The AMD model is deliberately "wilder" (larger NUMA and jitter factors):
// its corpus carries more shape variety. This reproduces the paper's Fig. 8
// observation that predicting AMD -> Intel is slightly easier than
// Intel -> AMD (the tamer corpus is the easier prediction target).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "measure/benchmarks.hpp"
#include "measure/metrics_catalog.hpp"
#include "rngdist/mixture.hpp"

namespace varpred::measure {

/// Per-metric counter generation parameters.
struct CounterModel {
  double base_log_rate = 0.0;   ///< log of events/second at neutral traits
  std::vector<double> trait_weights;  ///< response to each latent trait
  double noise_sigma = 0.05;    ///< run-to-run lognormal noise
  double mode_exponent = 0.0;   ///< coupling to the drawn performance mode
};

/// Operating condition of a machine under a tunable configuration
/// (`SystemConfig::condition()`). The defaults are the neutral condition,
/// and with them `runtime_distribution(bench, cond)` is byte-identical to
/// the unconditioned overload — quality ledgers and perf baselines therefore
/// cannot move unless a caller opts into non-neutral conditions.
struct SystemCondition {
  double jitter_scale = 1.0;  ///< multiplies the machine's base jitter
  double tail_scale = 1.0;    ///< multiplies heavy-tail weight and scale
  double speed_scale = 1.0;   ///< multiplies machine speed (<1: throttled)
  /// Multiplies the machine's NUMA factor (page-placement sensitivity).
  /// < 1 models placement policies that even out page luck (interleaving
  /// suppresses the bimodal split); > 1 models policies that amplify it.
  double numa_scale = 1.0;
};

/// A simulated evaluation machine.
class SystemModel {
 public:
  /// The Intel Xeon Platinum 8358 system (Table II metrics).
  static const SystemModel& intel();
  /// The AMD EPYC 7543 system (Table III metrics).
  static const SystemModel& amd();
  /// Extension: a third, ARM server system (the paper's future work asks
  /// for evaluation across more machines). Tamest NUMA behaviour, lowest
  /// clock jitter, but the strongest tail amplification (aggressive
  /// power-state transitions).
  static const SystemModel& arm();
  /// Lookup by name ("intel" / "amd" / "arm").
  static const SystemModel& by_name(const std::string& name);

  /// The paper-matrix systems ({intel, amd, arm}).
  static std::span<const SystemModel* const> all_systems();

  const std::string& name() const { return name_; }
  const std::vector<MetricInfo>& metrics() const { return *metrics_; }
  std::size_t metric_count() const { return metrics_->size(); }

  /// Ground-truth runtime mixture (in seconds) for a benchmark on this
  /// system. Deterministic per (system, benchmark).
  rngdist::Mixture runtime_distribution(const BenchmarkInfo& bench) const;

  /// Ground-truth runtime mixture under an operating condition: jitter,
  /// tail, speed and NUMA sensitivity are scaled. Deterministic per
  /// (system, benchmark, condition); a neutral condition reproduces
  /// `runtime_distribution(bench)` exactly (bit-identical draws and
  /// arithmetic).
  rngdist::Mixture runtime_distribution(const BenchmarkInfo& bench,
                                        const SystemCondition& cond) const;

  /// Expected per-second counter rates for a run of `bench` that drew
  /// mixture component `mode` (mode_ratio = component mean / mixture mean).
  /// Deterministic; per-run noise is applied by the caller.
  std::vector<double> expected_rates(const BenchmarkInfo& bench,
                                     double mode_ratio) const;

  /// The part of expected_rates that is the same for every run of `bench`:
  /// per metric, its base log-rate plus its response to the benchmark's
  /// traits (0 for duration_time).
  std::vector<double> trait_log_rates(const BenchmarkInfo& bench) const;

  /// expected_rates from trait_log_rates(bench), written into `rates`
  /// (metric_count() wide). The run simulator forms the trait part once per
  /// benchmark and calls this once per run.
  void rates_at_mode(std::span<const double> trait_log_rates,
                     double mode_ratio, std::span<double> rates) const;

  const CounterModel& counter_model(std::size_t metric) const {
    return counter_models_[metric];
  }

  // Shape factors (public for tests and documentation).
  double numa_factor() const { return numa_factor_; }
  double jitter_base() const { return jitter_base_; }
  double tail_factor() const { return tail_factor_; }

 private:
  SystemModel(std::string name, const std::vector<MetricInfo>* metrics,
              double numa_factor, double jitter_base, double tail_factor,
              double speed_factor);

  void build_counter_models();

  std::string name_;
  const std::vector<MetricInfo>* metrics_;
  double numa_factor_;   ///< scales bimodality probability and mode gap
  double jitter_base_;   ///< base coefficient of variation
  double tail_factor_;   ///< scales heavy-tail weight
  double speed_factor_;  ///< overall machine speed multiplier
  std::vector<CounterModel> counter_models_;
};

}  // namespace varpred::measure
