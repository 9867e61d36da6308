// bench_diff: the gate for the run documents every harness emits — timing
// (BENCH_*.json) and prediction quality (QUALITY_*.json) — against an
// append-only ledger of earlier documents (obs/ledger.hpp). The document's
// own shape picks the policy:
//
//   "stages"  timing: per stage, two-sample KS p-value + normalized
//             Wasserstein-1 effect size + bootstrap CI on the median shift
//             (obs/regression.hpp). unchanged | improved | regressed |
//             inconclusive.
//   "cells"   quality: per cell, tolerance on the orientation-adjusted mean
//             score shift, with a seeded bootstrap CI when both sides have
//             repeats (obs/quality.hpp). "degraded" instead of "regressed".
//
//   bench_diff --baseline=<ledger> [--paper=<ledger>] [--report=PATH]
//              [--json=PATH] <document.json> [...]             compare
//   bench_diff --append-baseline=<file.jsonl> <document.json> [...]
//                                                              grow a ledger
//
// <ledger> is a .jsonl file, a directory of .jsonl files (sorted), or a
// single document; the latest entry per bench is the baseline. --paper
// also compares quality documents against the latest paper-anchored
// reference cells, with a 0.05 tolerance; that section is advisory and
// never affects the exit code. --report writes the markdown report there
// instead of stdout; --json also writes the machine-readable report.
// Thresholds are the DiffConfig / QualityDiffConfig defaults.
//
// Exit codes: 0 = nothing regressed or degraded, 1 = something did,
// 2 = usage / I/O / parse error (ledger errors name path:line).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/ledger.hpp"
#include "obs/quality.hpp"
#include "obs/regression.hpp"
#include "obs/telemetry.hpp"

namespace {

using namespace varpred;
namespace json = obs::json;

/// Tolerance of the advisory comparison against published numbers, which
/// come from a different measurement pipeline.
constexpr double kPaperTolerance = 0.05;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --baseline=<jsonl|dir|json> [--paper=<jsonl|dir|json>]\n"
      "          [--report=PATH] [--json=PATH] <BENCH_*|QUALITY_*.json> [...]\n"
      "       %s --append-baseline=<file.jsonl> <BENCH_*|QUALITY_*.json> "
      "[...]\n",
      argv0, argv0);
  return 2;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_diff: cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  return true;
}

struct Documents {
  std::vector<obs::BenchTelemetry> timing;
  std::vector<obs::QualityDocument> quality;
};

/// Parses `doc` into `docs` by its shape and returns a one-line summary.
std::string add_document(const json::Value& doc, Documents& docs) {
  if (doc.find("stages") != nullptr) {
    const auto& t = docs.timing.emplace_back(obs::parse_bench_telemetry(doc));
    return t.provenance.bench + " (" + std::to_string(t.stages.size()) +
           " stages, repeat=" + std::to_string(t.provenance.repeat) + ")";
  }
  if (doc.find("cells") != nullptr) {
    const auto& q = docs.quality.emplace_back(obs::parse_quality_document(doc));
    return q.provenance.bench + " (" + std::to_string(q.cells.size()) +
           " cells, repeat=" + std::to_string(q.provenance.repeat) + ")";
  }
  throw std::invalid_argument(
      "document has neither \"stages\" (timing) nor \"cells\" (quality)");
}

void load(const std::string& path, Documents& docs) {
  obs::for_each_document(
      path, [&](const json::Value& doc) { add_document(doc, docs); });
}

/// Diffs every candidate against the latest ledger entry of its bench.
/// Returns false (after printing why) when a bench has no entry.
template <class Doc, class Config, class Diff>
bool diff_each(const std::vector<Doc>& ledger, const std::string& ledger_path,
               const std::vector<Doc>& candidates, const Config& config,
               Diff (*diff)(const Doc&, const Doc&, const Config&),
               std::vector<Diff>& out) {
  const std::vector<const Doc*> latest = obs::latest_per_bench(ledger);
  for (const Doc& cand : candidates) {
    const auto it = std::find_if(latest.begin(), latest.end(),
                                 [&](const Doc* entry) {
                                   return entry->provenance.bench ==
                                          cand.provenance.bench;
                                 });
    if (it == latest.end()) {
      std::fprintf(stderr,
                   "bench_diff: no baseline entry for bench \"%s\" in %s\n",
                   cand.provenance.bench.c_str(), ledger_path.c_str());
      return false;
    }
    out.push_back(diff(**it, cand, config));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string append_path;
  std::string paper_path;
  std::string report_path;
  std::string json_path;
  std::vector<std::string> candidate_paths;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--baseline=", 11) == 0) {
      baseline_path = arg + 11;
    } else if (std::strncmp(arg, "--append-baseline=", 18) == 0) {
      append_path = arg + 18;
    } else if (std::strncmp(arg, "--paper=", 8) == 0) {
      paper_path = arg + 8;
    } else if (std::strncmp(arg, "--report=", 9) == 0) {
      report_path = arg + 9;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      json_path = arg + 7;
    } else if (std::strncmp(arg, "--", 2) == 0) {
      std::fprintf(stderr, "bench_diff: unknown flag %s\n", arg);
      return usage(argv[0]);
    } else {
      candidate_paths.push_back(arg);
    }
  }
  if (candidate_paths.empty() ||
      (baseline_path.empty() == append_path.empty())) {
    return usage(argv[0]);
  }

  // Append mode: each document, once it parses as its kind, becomes one
  // ledger line as written.
  if (!append_path.empty()) {
    try {
      Documents parsed;
      for (const std::string& path : candidate_paths) {
        obs::for_each_document(path, [&](const json::Value& doc) {
          const std::string summary = add_document(doc, parsed);
          obs::append_ledger(append_path, doc);
          std::printf("bench_diff: appended %s -> %s\n", summary.c_str(),
                      append_path.c_str());
        });
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_diff: %s\n", e.what());
      return 2;
    }
    return 0;
  }

  // Compare mode.
  Documents ledger;
  Documents candidates;
  Documents paper;
  try {
    load(baseline_path, ledger);
    for (const std::string& path : candidate_paths) load(path, candidates);
    if (!paper_path.empty()) load(paper_path, paper);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 2;
  }
  if (ledger.timing.empty() && ledger.quality.empty()) {
    std::fprintf(stderr, "bench_diff: baseline ledger %s is empty\n",
                 baseline_path.c_str());
    return 2;
  }

  const obs::DiffConfig timing_config;
  const obs::QualityDiffConfig quality_config;
  std::vector<obs::RunDiff> runs;
  std::vector<obs::QualityDiff> diffs;
  if (!diff_each(ledger.timing, baseline_path, candidates.timing,
                 timing_config, obs::diff_telemetry, runs) ||
      !diff_each(ledger.quality, baseline_path, candidates.quality,
                 quality_config, obs::diff_quality, diffs)) {
    return 2;
  }

  std::string markdown;
  if (!runs.empty()) markdown += obs::markdown_report(runs, timing_config);
  if (!diffs.empty()) {
    if (!markdown.empty()) markdown += "\n";
    markdown += obs::quality_markdown_report(diffs, quality_config);
  }
  std::vector<obs::QualityDiff> paper_diffs;
  if (!paper_path.empty()) {
    obs::QualityDiffConfig paper_config = quality_config;
    paper_config.tolerance = kPaperTolerance;
    paper_diffs = obs::diff_against_reference(paper.quality,
                                              candidates.quality, paper_config);
    markdown += "\n---\n\n# paper-anchored drift (advisory)\n\n";
    markdown +=
        "Published numbers are a different measurement pipeline; this "
        "section tracks drift from them but never gates.\n\n";
    markdown += paper_diffs.empty()
                    ? "(no candidate cell matched a paper reference cell)\n"
                    : obs::quality_markdown_report(paper_diffs, paper_config);
  }

  const obs::Verdict timing = obs::overall_verdict(runs);
  const obs::Verdict overall =
      obs::worse_verdict(timing, obs::overall_verdict(diffs));
  // A quality regression reads "degraded"; a timing one "regressed".
  const char* label = timing == obs::Verdict::kRegressed
                          ? obs::to_string(overall)
                          : obs::quality_verdict_string(overall);

  if (report_path.empty()) {
    std::fputs(markdown.c_str(), stdout);
  } else {
    if (!write_file(report_path, markdown)) return 2;
    std::printf("bench_diff: report -> %s\n", report_path.c_str());
  }
  if (!json_path.empty()) {
    json::Value doc;
    doc.type = json::Value::Type::kObject;
    doc.object.emplace_back("overall", json::make_string(label));
    doc.object.emplace_back("runs", obs::json_report(runs));
    doc.object.emplace_back("benches", obs::quality_json_report(diffs));
    if (!paper_path.empty()) {
      doc.object.emplace_back("paper", obs::quality_json_report(paper_diffs));
    }
    if (!write_file(json_path, json::dump(doc) + "\n")) return 2;
    std::printf("bench_diff: json -> %s\n", json_path.c_str());
  }

  std::printf("bench_diff: overall verdict: %s\n", label);
  return overall == obs::Verdict::kRegressed ? 1 : 0;
}
