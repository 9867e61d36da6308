#include "obs/telemetry.hpp"

#include <stdexcept>

namespace varpred::obs {

namespace {

std::string get_string(const json::Value& doc, std::string_view key) {
  const json::Value* v = doc.find(key);
  return v != nullptr && v->is_string() ? v->str : std::string();
}

double get_number(const json::Value& doc, std::string_view key,
                  double fallback) {
  const json::Value* v = doc.find(key);
  return v != nullptr && v->is_number() ? v->num : fallback;
}

}  // namespace

BenchTelemetry parse_bench_telemetry(const json::Value& doc) {
  if (!doc.is_object()) {
    throw std::invalid_argument("telemetry: document is not an object");
  }
  BenchTelemetry t;
  t.schema_version = static_cast<int>(get_number(doc, "schema_version", 1));
  t.provenance = parse_provenance(doc);
  t.wall_seconds = get_number(doc, "wall_seconds", 0.0);

  const json::Value* stages = doc.find("stages");
  if (stages == nullptr || !stages->is_array()) {
    throw std::invalid_argument("telemetry: missing \"stages\" array");
  }
  for (const json::Value& stage : stages->array) {
    StageSamples s;
    s.name = get_string(stage, "name");
    if (s.name.empty()) {
      throw std::invalid_argument("telemetry: stage without a \"name\"");
    }
    if (const json::Value* samples = stage.find("samples");
        samples != nullptr && samples->is_array()) {
      s.samples.reserve(samples->array.size());
      for (const json::Value& v : samples->array) {
        if (!v.is_number()) {
          throw std::invalid_argument(
              "telemetry: non-numeric entry in stage \"" + s.name +
              "\" samples");
        }
        s.samples.push_back(v.num);
      }
    } else {
      // v1 document: the single timed pass is the whole sample.
      s.samples.push_back(get_number(stage, "seconds", 0.0));
    }
    // v3 tail quantiles; older documents simply don't carry them. Require
    // the full set — a document with only some of the four is malformed.
    const json::Value* p50 = stage.find("p50");
    if (p50 != nullptr) {
      const json::Value* p90 = stage.find("p90");
      const json::Value* p99 = stage.find("p99");
      const json::Value* p999 = stage.find("p999");
      if (!p50->is_number() || p90 == nullptr || !p90->is_number() ||
          p99 == nullptr || !p99->is_number() || p999 == nullptr ||
          !p999->is_number()) {
        throw std::invalid_argument(
            "telemetry: stage \"" + s.name +
            "\" has a partial or non-numeric p50/p90/p99/p999 set");
      }
      s.has_quantiles = true;
      s.quantiles.p50 = p50->num;
      s.quantiles.p90 = p90->num;
      s.quantiles.p99 = p99->num;
      s.quantiles.p999 = p999->num;
    }
    t.stages.push_back(std::move(s));
  }
  return t;
}

}  // namespace varpred::obs
