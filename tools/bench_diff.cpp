// bench_diff: the gate for the run documents every harness emits
// (BENCH_*.json, obs/run_document.hpp), against an append-only ledger of
// earlier documents (obs/ledger.hpp). Each half of a document has its own
// policy:
//
//   "stages"  timing: per stage, two-sample KS p-value + normalized
//             Wasserstein-1 effect size + bootstrap CI on the median shift
//             (obs/regression.hpp). unchanged | improved | regressed |
//             inconclusive.
//   "cells"   quality: per cell, tolerance on the orientation-adjusted mean
//             score shift, with a seeded bootstrap CI when both sides have
//             repeats (obs/quality.hpp). "degraded" instead of "regressed".
//
// A candidate's stages are compared when the latest ledger entry of its
// bench has stages, and its cells when that entry has cells; a half the
// entry lacks is skipped, with one line in the report saying so.
//
//   bench_diff --baseline=<ledger> [--paper=<ledger>] [--report=PATH]
//              [--json=PATH] <BENCH_*.json> [...]                compare
//   bench_diff --append-baseline=<file.jsonl> <BENCH_*.json> [...]
//                                                              grow a ledger
//   bench_diff --check <BENCH_*.json | dir> [...]       validate documents
//
// <ledger> is a .jsonl file, a directory of .jsonl files (sorted), or a
// single document; the latest entry per bench is the baseline. Ledger lines
// may predate schema v5 (obs::parse_ledger_line); candidates, appended
// documents and checked documents must be v5 (obs::parse_run_document).
// --paper also compares candidate cells against the latest paper-anchored
// reference cells, with a 0.05 tolerance; that section is advisory and
// never affects the exit code. --report writes the markdown report there
// instead of stdout; --json also writes the machine-readable report.
// Thresholds are the DiffConfig / QualityDiffConfig defaults.
//
// --check reads each argument as one document, and a directory as its
// BENCH_*.json files (*.trace.json skipped); any other UPPERCASE_*.json
// there (an unknown or retired family, such as QUALITY_) fails the sweep.
// It prints one ok/FAIL line per document and "N/M documents ok".
//
// Exit codes: 0 = nothing regressed or degraded (every document ok), 1 =
// something did (a document failed), 2 = usage / I/O / parse error (ledger
// errors name path:line), or no document to check.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/ledger.hpp"
#include "obs/quality.hpp"
#include "obs/regression.hpp"
#include "obs/run_document.hpp"

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
      "          [--report=PATH] [--json=PATH] <BENCH_*.json> [...]\n"
      "       %s --append-baseline=<file.jsonl> <BENCH_*.json> [...]\n"
      "       %s --check <BENCH_*.json | dir> [...]\n",
      argv0, argv0, argv0);
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

using Reader = obs::RunDocument (*)(const json::Value&);

void load(const std::string& path, Reader read,
          std::vector<obs::RunDocument>& docs) {
  obs::for_each_document(
      path, [&](const json::Value& doc) { docs.push_back(read(doc)); });
}

std::string summary(const obs::RunDocument& doc) {
  return doc.provenance.bench + " (" + std::to_string(doc.stages.size()) +
         " stages, " + std::to_string(doc.cells.size()) +
         " cells, repeat=" + std::to_string(doc.provenance.repeat) + ")";
}

// --- --check -------------------------------------------------------------------

/// NAME_*.json with an all-uppercase (or digit) NAME: the naming scheme of
/// run documents. Lowercase files (compile_commands.json, ...) are not ours.
bool document_shaped(const std::string& name) {
  const std::size_t end =
      name.find_first_not_of("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789");
  return end > 0 && end != std::string::npos && name[end] == '_' &&
         name.ends_with(".json") && !name.ends_with(".trace.json");
}

int check(const std::vector<std::string>& args) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::string, bool>> docs;  // path, found by a sweep
  for (const std::string& arg : args) {
    std::error_code ec;
    if (!fs::is_directory(arg, ec)) {
      docs.emplace_back(arg, false);
      continue;
    }
    const std::size_t first = docs.size();
    for (const auto& entry : fs::directory_iterator(arg)) {
      if (entry.is_regular_file() &&
          document_shaped(entry.path().filename().string())) {
        docs.emplace_back(entry.path().string(), true);
      }
    }
    std::sort(docs.begin() + static_cast<std::ptrdiff_t>(first), docs.end());
  }
  if (docs.empty()) {
    std::fprintf(stderr, "bench_diff: no documents to check\n");
    return 2;
  }
  std::size_t passed = 0;
  for (const auto& [path, swept] : docs) {
    try {
      if (swept &&
          fs::path(path).filename().string().rfind("BENCH_", 0) != 0) {
        throw std::invalid_argument(
            "not a run document family (only BENCH_*.json is)");
      }
      obs::parse_run_document(json::parse_file(path));
      std::printf("%s: ok\n", path.c_str());
      ++passed;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
      std::printf("%s: FAIL\n", path.c_str());
    }
  }
  std::printf("%zu/%zu documents ok\n", passed, docs.size());
  return passed == docs.size() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string append_path;
  std::string paper_path;
  std::string report_path;
  std::string json_path;
  bool check_mode = false;
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
    } else if (std::strcmp(arg, "--check") == 0) {
      check_mode = true;
    } else if (std::strncmp(arg, "--", 2) == 0) {
      std::fprintf(stderr, "bench_diff: unknown flag %s\n", arg);
      return usage(argv[0]);
    } else {
      candidate_paths.push_back(arg);
    }
  }
  const int modes = !baseline_path.empty() + !append_path.empty() + check_mode;
  if (candidate_paths.empty() || modes != 1) return usage(argv[0]);
  if (check_mode) return check(candidate_paths);

  // Append mode: each document, once it reads as v5, becomes one ledger
  // line as written.
  if (!append_path.empty()) {
    try {
      for (const std::string& path : candidate_paths) {
        obs::for_each_document(path, [&](const json::Value& doc) {
          const obs::RunDocument parsed = obs::parse_run_document(doc);
          obs::append_ledger(append_path, doc);
          std::printf("bench_diff: appended %s -> %s\n",
                      summary(parsed).c_str(), append_path.c_str());
        });
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_diff: %s\n", e.what());
      return 2;
    }
    return 0;
  }

  // Compare mode.
  std::vector<obs::RunDocument> ledger;
  std::vector<obs::RunDocument> candidates;
  std::vector<obs::RunDocument> paper;
  try {
    load(baseline_path, obs::parse_ledger_line, ledger);
    for (const std::string& path : candidate_paths) {
      load(path, obs::parse_run_document, candidates);
    }
    if (!paper_path.empty()) load(paper_path, obs::parse_ledger_line, paper);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 2;
  }
  if (ledger.empty()) {
    std::fprintf(stderr, "bench_diff: baseline ledger %s is empty\n",
                 baseline_path.c_str());
    return 2;
  }

  const obs::DiffConfig timing_config;
  const obs::QualityDiffConfig quality_config;
  const std::vector<const obs::RunDocument*> latest =
      obs::latest_per_bench(ledger);
  std::vector<obs::RunDiff> runs;
  std::vector<obs::QualityDiff> diffs;
  std::string skipped;
  for (const obs::RunDocument& cand : candidates) {
    const std::string& bench = cand.provenance.bench;
    const auto it = std::find_if(
        latest.begin(), latest.end(),
        [&](const obs::RunDocument* entry) {
          return entry->provenance.bench == bench;
        });
    if (it == latest.end()) {
      std::fprintf(stderr,
                   "bench_diff: no baseline entry for bench \"%s\" in %s\n",
                   bench.c_str(), baseline_path.c_str());
      return 2;
    }
    const obs::RunDocument& entry = **it;
    const auto skip = [&](const char* half) {
      skipped += "skipped: " + bench + " " + half +
                 " (the latest baseline entry has none)\n";
    };
    if (entry.stages.empty()) {
      skip("stages");
    } else {
      runs.push_back(obs::diff_telemetry(entry, cand, timing_config));
    }
    if (entry.cells.empty()) {
      skip("cells");
    } else {
      diffs.push_back(obs::diff_quality(entry, cand, quality_config));
    }
  }

  std::string markdown;
  const auto section = [&](const std::string& text) {
    if (!markdown.empty()) markdown += "\n";
    markdown += text;
  };
  if (!runs.empty()) section(obs::markdown_report(runs, timing_config));
  if (!diffs.empty()) {
    section(obs::quality_markdown_report(diffs, quality_config));
  }
  if (!skipped.empty()) section(skipped);
  std::vector<obs::QualityDiff> paper_diffs;
  if (!paper_path.empty()) {
    obs::QualityDiffConfig paper_config = quality_config;
    paper_config.tolerance = kPaperTolerance;
    paper_diffs =
        obs::diff_against_reference(paper, candidates, paper_config);
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
