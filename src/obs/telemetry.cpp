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
    const json::Value* samples = stage.find("samples");
    if (samples == nullptr || !samples->is_array() ||
        samples->array.empty()) {
      throw std::invalid_argument("telemetry: stage \"" + s.name +
                                  "\" needs a non-empty \"samples\" array");
    }
    s.samples.reserve(samples->array.size());
    for (const json::Value& v : samples->array) {
      if (!v.is_number()) {
        throw std::invalid_argument(
            "telemetry: non-numeric entry in stage \"" + s.name +
            "\" samples");
      }
      s.samples.push_back(v.num);
    }
    t.stages.push_back(std::move(s));
  }
  return t;
}

}  // namespace varpred::obs
