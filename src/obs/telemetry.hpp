// Reader for the BENCH_<name>.json telemetry documents emitted by
// bench::Run (bench/bench_common.hpp). A stage is a named series of
// samples, one per repetition — wall seconds for a timed stage, or any
// lower-is-better seconds value a harness records (bench_serve's latency
// quantiles). Every stage must carry a non-empty numeric "samples" array;
// the moments the harness writes beside it (and the quantiles older
// documents carry) are for readers of the raw document and are not parsed
// here. Ledger lines under
// bench/baselines/ are these same documents, one per line (obs/ledger.hpp).
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/ledger.hpp"

namespace varpred::obs {

/// One stage's samples (seconds), in repetition order.
struct StageSamples {
  std::string name;
  std::vector<double> samples;
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
/// missing or malformed, a stage lacks a non-empty numeric "samples"
/// array, or a provenance count is out of range.
BenchTelemetry parse_bench_telemetry(const json::Value& doc);

}  // namespace varpred::obs
