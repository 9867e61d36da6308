// serve_report: renders SERVE_*.json serving-load documents (bench_serve)
// as a markdown report — one row per load point with throughput, error
// rate, tail latency, and the queue-wait vs compute breakdown — plus an
// optional compact machine summary via --json=.
//
//   serve_report [--json=PATH] <SERVE_*.json | dir> [...]
//
// A directory argument expands to every SERVE_*.json inside it. The report
// is purely descriptive (schema conformance is obs_validate's job, wall
// time regressions are bench_diff's); exit code 0 on success, 2 on
// usage/IO/parse errors.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
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

double tail_ms(const Value& point, const char* hist, const char* q) {
  const Value* h = point.find(hist);
  if (h == nullptr || !h->is_object()) return 0.0;
  return num_or(*h, q, 0.0) * 1e-6;
}

bool report_one(const std::string& path, std::FILE* summary, bool first) {
  Value doc;
  try {
    doc = json::parse_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return false;
  }
  if (!doc.is_object()) {
    std::fprintf(stderr, "%s: not a JSON object\n", path.c_str());
    return false;
  }
  const Value* model = doc.find("model");
  const Value* daemon = doc.find("daemon");
  const Value* points = doc.find("load_points");
  if (points == nullptr || !points->is_array()) {
    std::fprintf(stderr, "%s: missing load_points\n", path.c_str());
    return false;
  }

  std::printf("## %s\n\n", path.c_str());
  if (model != nullptr && model->is_object()) {
    std::printf("model `%s` v%.0f (source system: %s)",
                str_or(*model, "name", "?").c_str(),
                num_or(*model, "version", 0),
                str_or(*model, "source_system", "?").c_str());
  }
  if (daemon != nullptr && daemon->is_object()) {
    std::printf(" — daemon port %.0f, queue_max %.0f",
                num_or(*daemon, "port", 0), num_or(*daemon, "queue_max", 0));
  }
  std::printf("\n\n");
  std::printf(
      "| load point | mode | conns | QPS | target | err%% | p50 ms | p99 ms "
      "| p999 ms | queue p99 ms | compute p99 ms |\n");
  std::printf(
      "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n");
  for (const Value& p : points->array) {
    if (!p.is_object()) continue;
    std::printf(
        "| %s | %s | %.0f | %.1f | %.1f | %.2f | %.3f | %.3f | %.3f | %.3f "
        "| %.3f |\n",
        str_or(p, "label", "?").c_str(), str_or(p, "mode", "?").c_str(),
        num_or(p, "connections", 0), num_or(p, "achieved_qps", 0),
        num_or(p, "target_qps", 0), num_or(p, "error_rate", 0) * 100.0,
        tail_ms(p, "latency_ns", "p50"), tail_ms(p, "latency_ns", "p99"),
        tail_ms(p, "latency_ns", "p999"), tail_ms(p, "queue_ns", "p99"),
        tail_ms(p, "compute_ns", "p99"));
  }
  std::printf("\nsaturation estimate: %.1f QPS\n\n",
              num_or(doc, "saturation_qps", 0));

  if (summary != nullptr) {
    if (!first) std::fputc(',', summary);
    std::fprintf(summary, "{\"path\":\"%s\",\"saturation_qps\":%s,"
                          "\"load_points\":%zu}",
                 json::escape(path).c_str(),
                 json::number(num_or(doc, "saturation_qps", 0)).c_str(),
                 points->array.size());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_out = argv[i] + 7;
      continue;
    }
    std::error_code ec;
    if (std::filesystem::is_directory(argv[i], ec)) {
      for (const auto& entry : std::filesystem::directory_iterator(argv[i])) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("SERVE_", 0) == 0 && name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".json") == 0) {
          paths.push_back(entry.path().string());
        }
      }
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: serve_report [--json=PATH] <SERVE_*.json | dir> "
                 "[...]\n");
    return 2;
  }
  std::sort(paths.begin(), paths.end());

  std::FILE* summary = nullptr;
  if (!json_out.empty()) {
    summary = std::fopen(json_out.c_str(), "w");
    if (summary == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 2;
    }
    std::fprintf(summary, "{\"documents\":[");
  }
  bool ok = true;
  bool first = true;
  for (const std::string& path : paths) {
    ok = report_one(path, summary, first) && ok;
    first = false;
  }
  if (summary != nullptr) {
    std::fprintf(summary, "]}\n");
    std::fclose(summary);
    std::printf("summary -> %s\n", json_out.c_str());
  }
  return ok ? 0 : 2;
}
