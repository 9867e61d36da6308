// Append-only JSONL ledger of run documents (obs/run_document.hpp), read by
// the timing and prediction-quality gates alike.
//
// A ledger line is the run document itself, compacted to one line: the
// harness writes BENCH_<name>.json, and `bench_diff --append-baseline`
// appends that same document to a .jsonl file. History is the point — a
// refreshed baseline is a new line, and readers take the latest line per
// bench. Reference ledgers live under bench/baselines/ (timing, one file
// per bench) and bench/baselines/quality/ (scores, plus the paper_reference
// ledger transcribed from the published tables); the lines checked in
// there predate schema v5 and are read by obs::parse_ledger_line.
//
// Every run document carries the same top-level provenance fields, parsed
// once here. Timing distributions are only comparable within one
// environment (Provenance::comparable_with); quality scores are seeded and
// machine-independent, so their provenance is informational.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace varpred::obs {

/// Where and how a run document was produced.
struct Provenance {
  std::string bench;
  std::string git;
  std::string hostname;   ///< "" in v1 timing documents
  std::string timestamp;  ///< ISO-8601 UTC; "" in v1 timing documents
  std::string obs_mode;
  std::uint64_t seed = 0;
  std::size_t runs = 0;  ///< corpus size the bench was driven with
  std::size_t workers = 0;
  std::size_t repeat = 1;  ///< samples per stage or cell
  bool fast = false;

  /// True when timings from the two environments can be compared as the
  /// same distribution: same machine, same parallelism, same
  /// instrumentation overhead. `git` and `timestamp` never matter.
  bool comparable_with(const Provenance& other) const {
    return hostname == other.hostname && workers == other.workers &&
           obs_mode == other.obs_mode;
  }

  /// One-line "git=… host=… seed=… workers=… repeat=… obs=…" summary for
  /// reports.
  std::string describe() const;
};

/// Reads the top-level provenance fields of a run document. Throws
/// std::invalid_argument when "bench" is missing, or when seed, runs,
/// workers or repeat is not a non-negative integer (counts must also be at
/// most 2^53, the largest exactly representable JSON integer).
Provenance parse_provenance(const json::Value& doc);

/// `value` as a count: a non-negative integer of at most `max` (2^53, the
/// largest exact JSON integer, by default). Throws std::invalid_argument
/// naming `key` otherwise.
std::uint64_t parse_count(const json::Value& value, std::string_view key,
                          double max = 0x1p53);

/// Calls `visit` on every run document `path` holds: each non-blank line
/// of a .jsonl ledger, every *.jsonl ledger of a directory (sorted by
/// name, not recursive), or a single .json document. Failures while
/// reading, parsing or visiting are rethrown prefixed with "path:line: "
/// ("path: " for a .json document): as std::invalid_argument when a line
/// does not parse or `visit` rejects a document, as std::runtime_error
/// otherwise (a file that cannot be read, a .json file that does not
/// parse).
void for_each_document(const std::string& path,
                       const std::function<void(const json::Value&)>& visit);

/// Appends `doc` as one compact line, creating the file if needed. Throws
/// std::runtime_error when the file cannot be opened or the write fails.
void append_ledger(const std::string& path, const json::Value& doc);

/// The latest document of each bench (file order, which appending keeps
/// chronological), in order of each bench's first appearance.
template <class Doc>
std::vector<const Doc*> latest_per_bench(const std::vector<Doc>& docs) {
  std::vector<const Doc*> latest;
  for (const Doc& doc : docs) {
    const auto same_bench = [&](const Doc* seen) {
      return seen->provenance.bench == doc.provenance.bench;
    };
    const auto it = std::find_if(latest.begin(), latest.end(), same_bench);
    if (it == latest.end()) {
      latest.push_back(&doc);
    } else {
      *it = &doc;
    }
  }
  return latest;
}

}  // namespace varpred::obs
