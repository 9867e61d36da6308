#include "obs/run_document.hpp"

#include <algorithm>
#include <initializer_list>
#include <stdexcept>
#include <string_view>

#include "stats/moments.hpp"

namespace varpred::obs {

std::string QualityCellKey::id() const {
  std::string out = app;
  for (const std::string* part : {&systems, &repr, &model, &metric, &context}) {
    out += '|';
    out += *part;
  }
  return out;
}

namespace {

using Type = json::Value::Type;
using Object = std::vector<std::pair<std::string, json::Value>>;

// --- Writer ------------------------------------------------------------------

json::Value value(Object members) {
  json::Value v;
  v.type = Type::kObject;
  v.object = std::move(members);
  return v;
}

json::Value number(double x) { return json::make_number(x); }

template <class T, class Write>
json::Value array(const std::vector<T>& items, Write write) {
  json::Value out;
  out.type = Type::kArray;
  for (const T& item : items) out.array.push_back(write(item));
  return out;
}

json::Value stage_json(const StageSamples& stage) {
  stats::MomentAccumulator acc;
  for (const double s : stage.samples) acc.add(s);
  const auto [lo, hi] =
      std::minmax_element(stage.samples.begin(), stage.samples.end());
  const bool any = !stage.samples.empty();
  return value({{"name", json::make_string(stage.name)},
                {"samples", array(stage.samples, number)},
                {"mean", number(acc.moments().mean)},
                {"stddev", number(acc.moments().stddev)},
                {"min", number(any ? *lo : 0.0)},
                {"max", number(any ? *hi : 0.0)}});
}

json::Value cell_json(const QualityCell& cell) {
  Object out = {{"app", json::make_string(cell.key.app)},
                {"systems", json::make_string(cell.key.systems)},
                {"repr", json::make_string(cell.key.repr)},
                {"model", json::make_string(cell.key.model)},
                {"metric", json::make_string(cell.key.metric)}};
  if (!cell.key.context.empty()) {
    out.emplace_back("context", json::make_string(cell.key.context));
  }
  out.emplace_back("samples", array(cell.samples, number));
  return value(std::move(out));
}

// --- Readers ----------------------------------------------------------------

using enum Type;

constexpr std::string_view kObsModes[] = {"off", "summary", "trace"};
constexpr std::string_view kMetrics[] = {"ks", "wasserstein1_normalized",
                                         "overlap", "tune_regret",
                                         "tune_budget_fraction"};

[[noreturn]] void fail(const std::string& where, const std::string& what) {
  throw std::invalid_argument("run document: " + where + what);
}

/// One key of a v5 object and the json type its value must have.
struct Field {
  std::string_view key;
  Type type;
  bool required = true;
};

/// `v` must be an object holding every required field and any optional
/// one, each once and of its field's type, and no other key.
void check_fields(const json::Value& v, const std::string& where,
                  std::initializer_list<Field> fields) {
  static constexpr const char* kTypeNames[] = {
      "null", "a boolean", "a number", "a string", "an array", "an object"};
  if (!v.is_object()) fail(where, "must be an object");
  for (const auto& [key, value] : v.object) {
    const auto field =
        std::find_if(fields.begin(), fields.end(),
                     [&](const Field& f) { return f.key == key; });
    if (field == fields.end()) fail(where, "unknown key \"" + key + "\"");
    if (v.find(key) != &value) fail(where, "repeated key \"" + key + "\"");
    if (value.type != field->type) {
      fail(where, "\"" + key + "\" must be " +
                      kTypeNames[static_cast<int>(field->type)]);
    }
  }
  for (const Field& f : fields) {
    if (f.required && v.find(f.key) == nullptr) {
      fail(where, "missing \"" + std::string(f.key) + "\"");
    }
  }
}

template <std::size_t N>
void check_enum(const std::string& value, const std::string_view (&allowed)[N],
                std::string_view key, const std::string& where) {
  if (std::find(std::begin(allowed), std::end(allowed), value) ==
      std::end(allowed)) {
    fail(where, "\"" + std::string(key) + "\" value \"" + value +
                    "\" is not one of the schema's");
  }
}

/// The string member `key`, or "" when it is absent or not a string.
std::string text(const json::Value& v, std::string_view key) {
  const json::Value* s = v.find(key);
  return s != nullptr && s->is_string() ? s->str : std::string();
}

/// A "samples" array: numbers, or for cells also the non-finite sentinels.
std::vector<double> samples_at(const json::Value& obj,
                               const std::string& where, bool sentinels) {
  const json::Value* samples = obj.find("samples");
  if (samples == nullptr || !samples->is_array()) {
    fail(where, "needs a \"samples\" array");
  }
  std::vector<double> out;
  for (const json::Value& s : samples->array) {
    double x = s.num;
    if (sentinels ? !s.numeric_value(x) : !s.is_number()) {
      fail(where, "non-numeric entry in \"samples\"");
    }
    out.push_back(x);
  }
  return out;
}

StageSamples read_stage(const json::Value& v, const std::string& where,
                        bool strict) {
  if (strict) {
    check_fields(v, where,
                 {{"name", kString}, {"samples", kArray}, {"mean", kNumber},
                  {"stddev", kNumber}, {"min", kNumber}, {"max", kNumber}});
  }
  StageSamples stage{text(v, "name"), {}};
  if (stage.name.empty()) fail(where, "needs a non-empty \"name\"");
  stage.samples = samples_at(v, where, false);
  if (stage.samples.empty()) fail(where, "\"samples\" is empty");
  return stage;
}

QualityCell read_cell(const json::Value& v, const std::string& where,
                      bool strict) {
  if (strict) {
    check_fields(v, where,
                 {{"app", kString}, {"systems", kString}, {"repr", kString},
                  {"model", kString}, {"metric", kString},
                  {"context", kString, false}, {"samples", kArray}});
    check_enum(text(v, "metric"), kMetrics, "metric", where);
  } else if (!v.is_object()) {
    fail(where, "must be an object");
  }
  QualityCell cell{{text(v, "app"), text(v, "systems"), text(v, "repr"),
                    text(v, "model"), text(v, "metric"), text(v, "context")},
                   samples_at(v, where, true)};
  if (cell.key.metric.empty()) fail(where, "needs a \"metric\"");
  return cell;
}

/// The v5 fields beyond provenance (whose counts parse_provenance checks),
/// stages and cells: the key sets, version, types, enums, the pool totals,
/// peak RSS and the metrics snapshot.
void read_v5_fields(const json::Value& doc, RunDocument& out) {
  const std::string top;
  // The version first: an older document fails by its version, not by the
  // first field that changed since.
  if (const json::Value* v = doc.find("schema_version");
      v != nullptr && !(v->is_number() && v->num == kRunDocumentVersion)) {
    fail(top, "\"schema_version\" must be 5, got " + json::dump(*v));
  }
  // "metrics" is the snapshot object, or null when instrumentation is off.
  const json::Value* metrics = doc.find("metrics");
  const Type metrics_type =
      metrics != nullptr && metrics->is_null() ? kNull : kObject;
  check_fields(doc, top,
               {{"schema_version", kNumber}, {"bench", kString},
                {"git", kString}, {"hostname", kString},
                {"timestamp", kString}, {"seed", kNumber}, {"runs", kNumber},
                {"repeat", kNumber}, {"fast", kBool}, {"workers", kNumber},
                {"obs_mode", kString}, {"wall_seconds", kNumber},
                {"stages", kArray}, {"pool", kObject},
                {"peak_rss_kb", kNumber},
                {"metrics", metrics_type}, {"cells", kArray}});
  // parse_provenance reads a pre-v5 repeat of 0 as 1; a v5 run has >= 1.
  if (doc.find("repeat")->num == 0) fail(top, "\"repeat\" must be at least 1");
  check_enum(text(doc, "obs_mode"), kObsModes, "obs_mode", top);
  out.wall_seconds = doc.find("wall_seconds")->num;

  const json::Value& pool = *doc.find("pool");
  check_fields(pool, "pool: ",
               {{"spans", kNumber}, {"chunks", kNumber},
                {"iterations", kNumber}, {"wakeups", kNumber},
                {"stale", kNumber}, {"busy_seconds", kNumber},
                {"idle_seconds", kNumber}});
  const auto count = [&](std::string_view key) {
    return parse_count(*pool.find(key), key);
  };
  out.pool = {count("spans"),   count("chunks"), count("iterations"),
              count("wakeups"), count("stale"),  pool.find("busy_seconds")->num,
              pool.find("idle_seconds")->num};
  out.peak_rss_kb = parse_count(*doc.find("peak_rss_kb"), "peak_rss_kb");
  out.metrics = *metrics;
  if (!out.metrics.is_null()) {
    check_fields(out.metrics, "metrics: ",
                 {{"counters", kObject, false}, {"gauges", kObject, false},
                  {"hdr", kObject, false}});
  }
}

RunDocument read(const json::Value& doc, bool strict) {
  RunDocument out;
  if (strict) {
    read_v5_fields(doc, out);
  } else {
    out.schema_version = 1;
    const json::Value* version = doc.find("schema_version");
    if (version != nullptr && version->is_number()) {
      const double n = version->num;
      if (n != 1 && n != 2 && n != 3 && n != 4) {
        fail("", "\"schema_version\" " + json::dump(*version) + " is not 1-5");
      }
      out.schema_version = static_cast<int>(n);
    }
  }
  out.provenance = parse_provenance(doc);

  const json::Value* stages = doc.find("stages");
  const json::Value* cells = doc.find("cells");
  if (stages == nullptr && cells == nullptr) {
    fail("", "neither \"stages\" (timing) nor \"cells\" (quality)");
  }
  for (const auto& [key, list] : {std::pair{"stages", stages},
                                  std::pair{"cells", cells}}) {
    if (list != nullptr && !list->is_array()) {
      fail("", "\"" + std::string(key) + "\" must be an array");
    }
  }
  for (std::size_t i = 0; stages != nullptr && i < stages->array.size(); ++i) {
    out.stages.push_back(read_stage(
        stages->array[i], "stages[" + std::to_string(i) + "]: ", strict));
  }
  for (std::size_t i = 0; cells != nullptr && i < cells->array.size(); ++i) {
    out.cells.push_back(read_cell(
        cells->array[i], "cells[" + std::to_string(i) + "]: ", strict));
  }
  return out;
}

}  // namespace

std::string run_document_json(const RunDocument& doc) {
  const Provenance& p = doc.provenance;
  const auto count = [](std::uint64_t n) {
    return number(static_cast<double>(n));
  };
  const PoolTotals& pool = doc.pool;
  return json::dump(value(
      {{"schema_version", number(doc.schema_version)},
       {"bench", json::make_string(p.bench)},
       {"git", json::make_string(p.git)},
       {"hostname", json::make_string(p.hostname)},
       {"timestamp", json::make_string(p.timestamp)},
       {"seed", count(p.seed)},
       {"runs", count(p.runs)},
       {"repeat", count(p.repeat)},
       {"fast", json::make_bool(p.fast)},
       {"workers", count(p.workers)},
       {"obs_mode", json::make_string(p.obs_mode)},
       {"wall_seconds", number(doc.wall_seconds)},
       {"stages", array(doc.stages, stage_json)},
       {"pool", value({{"spans", count(pool.spans)},
                       {"chunks", count(pool.chunks)},
                       {"iterations", count(pool.iterations)},
                       {"wakeups", count(pool.wakeups)},
                       {"stale", count(pool.stale)},
                       {"busy_seconds", number(pool.busy_seconds)},
                       {"idle_seconds", number(pool.idle_seconds)}})},
       {"peak_rss_kb", count(doc.peak_rss_kb)},
       {"metrics", doc.metrics},
       {"cells", array(doc.cells, cell_json)}}));
}

RunDocument parse_run_document(const json::Value& doc) {
  return read(doc, true);
}

RunDocument parse_ledger_line(const json::Value& doc) {
  const json::Value* version = doc.find("schema_version");
  return read(doc, version != nullptr && version->is_number() &&
                       version->num >= kRunDocumentVersion);
}

}  // namespace varpred::obs
