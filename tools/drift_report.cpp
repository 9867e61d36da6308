// drift_report: renders DRIFT_*.json timeline documents (bench_drift) as a
// markdown report — per-trace state strips, detection events, and a policy
// comparison table — plus an optional compact machine summary via --json=.
//
//   drift_report [--json=PATH] <DRIFT_*.json | dir> [...]
//
// A directory argument expands to every DRIFT_*.json inside it. The report
// is purely descriptive (the gate decision lives in bench_drift's
// --expect flag); exit code 0 on success, 2 on usage/IO/parse errors.
//
// Timeline strips use one character per observed window:
//   .  stable    ~  drifting    #  shifted    _  skipped (under min_samples)
// with a `|` inserted at the ground-truth regime change, so a healthy
// detection reads like  .....|..~~###...  at a glance.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace {

namespace json = varpred::obs::json;
using json::Value;

double num_or(const Value& obj, const char* key, double fallback) {
  const Value* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->num : fallback;
}

std::string str_or(const Value& obj, const char* key,
                   const std::string& fallback) {
  const Value* v = obj.find(key);
  return (v != nullptr && v->is_string()) ? v->str : fallback;
}

bool bool_or(const Value& obj, const char* key, bool fallback) {
  const Value* v = obj.find(key);
  return (v != nullptr && v->is_bool()) ? v->boolean : fallback;
}

char state_char(const std::string& state) {
  if (state == "stable") return '.';
  if (state == "drifting") return '~';
  if (state == "shifted") return '#';
  return '?';
}

/// One app's timeline as a strip, with `|` at the regime-change window.
std::string timeline_strip(const Value& timeline, double window_seconds,
                           const std::vector<double>& regime_changes) {
  std::string strip;
  for (const Value& row : timeline.array) {
    const double t_end = num_or(row, "t_end", 0.0);
    for (const double rc : regime_changes) {
      // The change lands inside this window: mark the boundary before it.
      if (rc > t_end - window_seconds && rc <= t_end) strip += '|';
    }
    strip += state_char(str_or(row, "state", "?"));
  }
  return strip;
}

bool report_document(const std::string& path, const Value& doc,
                     std::string& json_entries, bool first_entry) {
  const std::string scenario = str_or(doc, "scenario", "?");
  const std::string system = str_or(doc, "system", "?");
  const double window_seconds = num_or(doc, "window_seconds", 0.0);
  std::printf("## %s\n\n", path.c_str());
  std::printf(
      "scenario `%s` on `%s`: %.0f windows of %.0fs (%.0f runs/window, "
      "%.0f calibration windows, detection budget %.0f windows)\n\n",
      scenario.c_str(), system.c_str(), num_or(doc, "windows", 0.0),
      window_seconds, num_or(doc, "runs_per_window", 0.0),
      num_or(doc, "calibration_windows", 0.0),
      num_or(doc, "budget_windows", 0.0));

  const Value* traces = doc.find("traces");
  if (traces == nullptr || !traces->is_array()) {
    std::fprintf(stderr, "%s: missing traces array\n", path.c_str());
    return false;
  }

  std::printf(
      "| stream | policy | refits | shifts | flagged | mean KS | "
      "post-onset KS |\n");
  std::printf(
      "|-------:|--------|-------:|-------:|--------:|--------:|"
      "--------------:|\n");
  for (const Value& trace : traces->array) {
    const Value* policies = trace.find("policies");
    if (policies == nullptr) continue;
    for (const Value& policy : policies->array) {
      std::printf("| %.0f | %s | %.0f | %.0f | %.0f | %.3f | %.3f |\n",
                  num_or(trace, "stream", 0.0),
                  str_or(policy, "policy", "?").c_str(),
                  num_or(policy, "refits", 0.0),
                  num_or(policy, "shift_events", 0.0),
                  num_or(policy, "flagged_windows", 0.0),
                  num_or(policy, "mean_pred_ks", 0.0),
                  num_or(policy, "post_onset_pred_ks", 0.0));
    }
  }
  std::printf("\n");

  for (const Value& trace : traces->array) {
    std::vector<double> regime_changes;
    if (const Value* rc = trace.find("regime_changes")) {
      for (const Value& v : rc->array) {
        if (v.is_number()) regime_changes.push_back(v.num);
      }
    }
    const Value* policies = trace.find("policies");
    if (policies == nullptr) continue;
    for (const Value& policy : policies->array) {
      const std::string policy_name = str_or(policy, "policy", "?");
      const Value* apps = policy.find("apps");
      if (apps == nullptr) continue;
      std::printf("### stream %.0f, policy `%s`\n\n",
                  num_or(trace, "stream", 0.0), policy_name.c_str());
      std::printf("```\n");
      for (const Value& app : apps->array) {
        const Value* timeline = app.find("timeline");
        if (timeline == nullptr || !timeline->is_array()) continue;
        std::printf("%-24s %s\n", str_or(app, "app", "?").c_str(),
                    timeline_strip(*timeline, window_seconds,
                                   regime_changes).c_str());
      }
      std::printf("```\n\n");
      const Value* detections = policy.find("detections");
      if (detections != nullptr && !detections->array.empty()) {
        for (const Value& d : detections->array) {
          std::printf(
              "- `%s`: shifted at window %.0f (latency %.0f windows / "
              "%.0fs after the regime change)\n",
              str_or(d, "app", "?").c_str(), num_or(d, "window", 0.0),
              num_or(d, "latency_windows", -1.0),
              num_or(d, "latency_seconds", -1.0));
        }
        std::printf("\n");
      }
      for (const Value& app : apps->array) {
        const std::string recovery = str_or(app, "recovery", "n/a");
        if (recovery != "n/a") {
          std::printf("- `%s` recovery after refit: **%s**\n",
                      str_or(app, "app", "?").c_str(), recovery.c_str());
        }
      }
      std::printf("\n");
    }
  }

  const Value* summary = doc.find("summary");
  if (summary != nullptr) {
    std::printf(
        "summary: shift_events=%.0f detected=%s max_latency=%.0f windows "
        "within_budget=%s recovered=%s false_positive_shifts=%.0f\n\n",
        num_or(*summary, "shift_events", 0.0),
        bool_or(*summary, "detected", false) ? "yes" : "no",
        num_or(*summary, "max_latency_windows", -1.0),
        bool_or(*summary, "within_budget", false) ? "yes" : "no",
        bool_or(*summary, "recovered", false) ? "yes" : "no",
        num_or(*summary, "false_positive_shifts", 0.0));

    std::ostringstream entry;
    if (!first_entry) entry << ",";
    entry << "{\"path\":\"" << json::escape(path) << "\""
          << ",\"scenario\":\"" << json::escape(scenario) << "\""
          << ",\"system\":\"" << json::escape(system) << "\""
          << ",\"shift_events\":"
          << json::number(num_or(*summary, "shift_events", 0.0))
          << ",\"detected\":"
          << (bool_or(*summary, "detected", false) ? "true" : "false")
          << ",\"max_latency_windows\":"
          << json::number(num_or(*summary, "max_latency_windows", -1.0))
          << ",\"within_budget\":"
          << (bool_or(*summary, "within_budget", false) ? "true" : "false")
          << ",\"recovered\":"
          << (bool_or(*summary, "recovered", false) ? "true" : "false")
          << ",\"false_positive_shifts\":"
          << json::number(num_or(*summary, "false_positive_shifts", 0.0))
          << "}";
    json_entries += entry.str();
  }
  return true;
}

std::vector<std::string> expand_input(const std::string& arg) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(arg, ec)) return {arg};
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(arg)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > 11 && name.compare(0, 6, "DRIFT_") == 0 &&
        name.compare(name.size() - 5, 5, ".json") == 0) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  int first = 1;
  if (first < argc && std::strncmp(argv[first], "--json=", 7) == 0) {
    json_out = argv[first] + 7;
    ++first;
  }
  if (argc - first < 1) {
    std::fprintf(stderr,
                 "usage: %s [--json=PATH] <DRIFT_*.json | dir> [...]\n",
                 argv[0]);
    return 2;
  }

  std::vector<std::string> documents;
  for (int i = first; i < argc; ++i) {
    for (std::string& path : expand_input(argv[i])) {
      documents.push_back(std::move(path));
    }
  }
  if (documents.empty()) {
    std::fprintf(stderr, "%s: no documents to report\n", argv[0]);
    return 2;
  }

  std::printf("# Drift timeline report\n\n");
  std::string json_entries;
  bool ok = true;
  for (const std::string& path : documents) {
    try {
      const Value doc = json::parse_file(path);
      if (!report_document(path, doc, json_entries, json_entries.empty())) {
        ok = false;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      ok = false;
    }
  }
  std::printf(
      "legend: `.` stable, `~` drifting, `#` shifted, `|` ground-truth "
      "regime change\n");

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 2;
    }
    out << "{\"documents\":[" << json_entries << "]}\n";
  }
  return ok ? 0 : 2;
}
