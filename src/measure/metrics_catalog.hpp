// Profiling-metric catalogs reproducing Table II (Intel, 68 metrics) and
// Table III (AMD, 75 metrics) of the paper. Each metric carries a semantic
// category derived from its name; the simulator uses the category to couple
// counter rates to application characteristics, and the profile featurizer
// uses the names for reporting.
#pragma once

#include <string>
#include <vector>

namespace varpred::measure {

/// Coarse semantic category of a perf metric.
enum class MetricCategory {
  kCompute,   ///< instructions, cycles, uops, FP
  kBranch,    ///< branch counters and mispredictions
  kCache,     ///< cache hierarchy and memory traffic
  kTlb,       ///< TLB walks and misses
  kOs,        ///< faults, context switches, migrations, clocks
  kDuration,  ///< duration_time: the run time itself
};

std::string to_string(MetricCategory category);

struct MetricInfo {
  int id = 0;
  std::string name;
  MetricCategory category = MetricCategory::kCompute;
};

/// Table II: the 68 metrics collected on the Intel (Xeon 8358) system.
const std::vector<MetricInfo>& intel_metrics();

/// Table III: the 75 metrics collected on the AMD (EPYC 7543) system.
const std::vector<MetricInfo>& amd_metrics();

/// Extension (the paper's future work evaluates only two systems): the
/// metric set of a simulated ARM server (Neoverse-class PMU events).
const std::vector<MetricInfo>& arm_metrics();

/// Infers a category from a perf metric name (keyword rules).
MetricCategory categorize_metric(const std::string& name);

}  // namespace varpred::measure
