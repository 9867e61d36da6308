// Reader for the BENCH_<name>.json telemetry documents emitted by
// bench::Run (bench/bench_common.hpp). Understands all schema versions:
//   v1 (PR 2): one timed pass per stage — {"name", "seconds"}.
//   v2 (PR 4): --repeat=N gives every stage a *sample distribution* —
//       {"name", "seconds", "samples":[...], mean/stddev/min/max} plus
//       top-level schema_version / hostname / timestamp / repeat.
//   v3 (this PR): every stage additionally carries HDR tail quantiles —
//       p50/p90/p99/p999 in wall seconds.
// Older documents are mapped onto the newest shape: v1 gets a
// single-element sample vector; v1/v2 leave has_quantiles false so
// downstream consumers (bench_diff) can recompute tails from the raw
// samples when they need them. Ledger lines under bench/baselines/ are
// these same documents, one per line (obs/ledger.hpp).
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/ledger.hpp"

namespace varpred::obs {

/// Per-stage tail quantiles (wall seconds), schema v3+.
struct StageQuantiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

/// One pipeline stage's timing samples: wall seconds per repetition, in
/// repetition order.
struct StageSamples {
  std::string name;
  std::vector<double> samples;
  /// True when the document carried p50/p90/p99/p999 (schema v3+).
  bool has_quantiles = false;
  StageQuantiles quantiles;
};

/// Parsed telemetry document (the fields bench_diff consumes; the
/// pool/metrics subtrees stay in the raw json::Value).
struct BenchTelemetry {
  int schema_version = 1;
  Provenance provenance;
  double wall_seconds = 0.0;
  std::vector<StageSamples> stages;
};

/// Extracts a BenchTelemetry from a parsed document. Throws
/// std::invalid_argument when required fields ("bench", "stages") are
/// missing or malformed, or a provenance count is out of range.
BenchTelemetry parse_bench_telemetry(const json::Value& doc);

}  // namespace varpred::obs
