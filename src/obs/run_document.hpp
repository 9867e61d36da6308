// The run document: BENCH_<name>.json, one per harness or `varpred
// --obs-out` run, and one line per ledger entry (obs/ledger.hpp). Schema
// v5 holds both halves the gates compare, beside the provenance, the wall
// time, the pool totals, peak RSS and the metrics snapshot:
//   "stages"  named sample series, one sample per repetition (wall seconds,
//             or a lower-is-better value a harness records itself), each
//             with mean/stddev/min/max for readers of the raw document;
//   "cells"   prediction-quality score samples (obs/quality.hpp), one per
//             repetition seed; non-finite scores are the json string
//             sentinels ("Infinity", ...).
// run_document_json is the one writer, parse_run_document the one strict
// reader, and parse_ledger_line the one path for the pre-v5 lines checked
// in under bench/baselines/ (v1 quality, v2-v4 timing).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/ledger.hpp"

namespace varpred::obs {

inline constexpr int kRunDocumentVersion = 5;

/// One stage's samples, in repetition order.
struct StageSamples {
  std::string name;
  std::vector<double> samples;
};

/// Identity of one quality observable. `app` is the benchmark ("*" for a
/// marginal over all apps), `systems` the system or "src->dst" transfer
/// pair, `repr`/`model` the representation and predictor ("*" for
/// marginals), `metric` the score name. `context` separates sweep points
/// that would otherwise collapse into one cell (e.g. "probes=8"); usually
/// "".
struct QualityCellKey {
  std::string app;
  std::string systems;
  std::string repr;
  std::string model;
  std::string metric;
  std::string context;

  bool operator==(const QualityCellKey&) const = default;

  /// Stable "app|systems|repr|model|metric|context" form, used for report
  /// labels and for seeding the per-cell bootstrap stream.
  std::string id() const;
};

/// One observable's score samples, one per repetition seed, in order.
struct QualityCell {
  QualityCellKey key;
  std::vector<double> samples;
};

/// The global pool's totals over the run (ThreadPool::stats()).
struct PoolTotals {
  std::uint64_t spans = 0;
  std::uint64_t chunks = 0;
  std::uint64_t iterations = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t stale = 0;
  double busy_seconds = 0.0;
  double idle_seconds = 0.0;
};

struct RunDocument {
  int schema_version = kRunDocumentVersion;
  Provenance provenance;
  double wall_seconds = 0.0;
  std::vector<StageSamples> stages;
  PoolTotals pool;
  std::uint64_t peak_rss_kb = 0;
  json::Value metrics;  ///< counters/gauges/hdr snapshot, or null (obs off)
  std::vector<QualityCell> cells;
};

/// One line of compact JSON (no newline): the file body and the ledger
/// line are the same text.
std::string run_document_json(const RunDocument& doc);

/// Strict v5 reader. Throws std::invalid_argument naming the first field
/// that is missing, mistyped, unknown, repeated or out of its enum.
RunDocument parse_run_document(const json::Value& doc);

/// A ledger line: v5 through parse_run_document; an older line by the
/// pre-v5 rules: "bench" and at least one of "stages" (each a non-empty
/// "name" and numeric "samples") and "cells" (each a "metric" and numeric
/// or sentinel "samples"); the provenance and "schema_version" are read,
/// anything else is ignored. Throws std::invalid_argument.
RunDocument parse_ledger_line(const json::Value& doc);

}  // namespace varpred::obs
