// obs_validate: checks JSON documents against a schema written in the
// subset of JSON Schema this repo uses (type / required / properties /
// items / enum). Exists so CI can gate the BENCH_*.json telemetry format
// without a Python dependency.
//
//   obs_validate [--prefix=NAME_] <schema.json> <document.json | dir> [...]
//
// A directory argument expands to every <prefix>*.json inside it — the
// prefix defaults to "BENCH_"; pass --prefix=QUALITY_ to sweep quality
// documents instead (Chrome *.trace.json files are always skipped — they
// follow the trace_event format, not these schemas). Directory sweeps also
// police coverage: a telemetry-shaped file (UPPERCASE_ prefix + .json)
// whose prefix is not in the known-schema registry (BENCH_ / QUALITY_) is
// reported as a failure instead of silently skipped, so a new (or retired)
// document family cannot ship without a registered schema. Every input is
// validated — failures do not stop the run — and a pass/fail summary is
// printed at the end. Exit code 0 when every document validates, 1 when
// any fails, 2 on usage/schema errors or when no documents were found.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace {

using varpred::obs::json::Value;

std::string type_name(const Value& v) {
  if (v.is_null()) return "null";
  if (v.is_bool()) return "boolean";
  if (v.is_number()) return "number";
  if (v.is_string()) return "string";
  if (v.is_array()) return "array";
  return "object";
}

bool type_matches(const Value& v, const std::string& want) {
  if (want == "null") return v.is_null();
  if (want == "boolean") return v.is_bool();
  if (want == "number") return v.is_number();
  if (want == "string") return v.is_string();
  if (want == "array") return v.is_array();
  if (want == "object") return v.is_object();
  std::fprintf(stderr, "schema error: unknown type \"%s\"\n", want.c_str());
  return false;
}

bool validate(const Value& doc, const Value& schema, const std::string& path);

bool check_type(const Value& doc, const Value& spec, const std::string& path) {
  // "type" is a single name or a list of alternatives.
  if (spec.is_string()) {
    if (type_matches(doc, spec.str)) return true;
    std::fprintf(stderr, "%s: expected %s, got %s\n", path.c_str(),
                 spec.str.c_str(), type_name(doc).c_str());
    return false;
  }
  if (spec.is_array()) {
    for (const auto& alt : spec.array) {
      if (alt.is_string() && type_matches(doc, alt.str)) return true;
    }
    std::fprintf(stderr, "%s: got %s, which matches no allowed type\n",
                 path.c_str(), type_name(doc).c_str());
    return false;
  }
  std::fprintf(stderr, "schema error at %s: bad \"type\" spec\n",
               path.c_str());
  return false;
}

bool check_enum(const Value& doc, const Value& options,
                const std::string& path) {
  for (const auto& option : options.array) {
    if (option.is_string() && doc.is_string() && option.str == doc.str) {
      return true;
    }
    if (option.is_number() && doc.is_number() && option.num == doc.num) {
      return true;
    }
  }
  std::fprintf(stderr, "%s: value not in enum\n", path.c_str());
  return false;
}

bool validate(const Value& doc, const Value& schema,
              const std::string& path) {
  if (!schema.is_object()) {
    std::fprintf(stderr, "schema error at %s: schema must be an object\n",
                 path.c_str());
    return false;
  }
  if (const Value* type = schema.find("type")) {
    if (!check_type(doc, *type, path)) return false;
  }
  if (const Value* options = schema.find("enum")) {
    if (!check_enum(doc, *options, path)) return false;
  }
  if (const Value* required = schema.find("required"); required != nullptr &&
                                                       doc.is_object()) {
    for (const auto& key : required->array) {
      if (doc.find(key.str) == nullptr) {
        std::fprintf(stderr, "%s: missing required key \"%s\"\n",
                     path.c_str(), key.str.c_str());
        return false;
      }
    }
  }
  if (const Value* props = schema.find("properties"); props != nullptr &&
                                                      doc.is_object()) {
    for (const auto& [key, sub] : props->object) {
      if (const Value* child = doc.find(key)) {
        if (!validate(*child, sub, path + "/" + key)) return false;
      }
    }
  }
  if (const Value* items = schema.find("items"); items != nullptr &&
                                                 doc.is_array()) {
    for (std::size_t i = 0; i < doc.array.size(); ++i) {
      if (!validate(doc.array[i], *items,
                    path + "/" + std::to_string(i))) {
        return false;
      }
    }
  }
  return true;
}

/// Document families with a registered schema under tools/. A directory
/// sweep treats telemetry-shaped files outside this registry as failures.
constexpr const char* kKnownPrefixes[] = {"BENCH_", "QUALITY_"};

bool has_prefix(const std::string& name, const std::string& prefix) {
  return name.size() >= prefix.size() &&
         name.compare(0, prefix.size(), prefix) == 0;
}

bool is_json_document(const std::string& name) {
  if (name.size() >= 11 &&
      name.compare(name.size() - 11, 11, ".trace.json") == 0) {
    return false;  // Chrome trace_event output, not a telemetry document
  }
  return name.size() >= 5 &&
         name.compare(name.size() - 5, 5, ".json") == 0;
}

bool is_telemetry_document(const std::filesystem::path& p,
                           const std::string& prefix) {
  const std::string name = p.filename().string();
  return has_prefix(name, prefix) && is_json_document(name);
}

/// Telemetry-shaped name: UPPERCASE_ prefix followed by anything, ending
/// in .json. Lowercase files (compile_commands.json, ...) are not ours.
bool looks_like_telemetry(const std::string& name) {
  if (!is_json_document(name)) return false;
  std::size_t i = 0;
  while (i < name.size() &&
         ((name[i] >= 'A' && name[i] <= 'Z') ||
          (name[i] >= '0' && name[i] <= '9'))) {
    ++i;
  }
  return i > 0 && i < name.size() && name[i] == '_';
}

/// Expands an argument into document paths: a directory yields its
/// <prefix>*.json files (sorted, traces skipped); anything else passes
/// through untouched. Telemetry-shaped files in the directory whose prefix
/// is in no known-schema registry entry are appended to `unknown`.
std::vector<std::string> expand_input(const std::string& arg,
                                      const std::string& prefix,
                                      std::vector<std::string>& unknown) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(arg, ec)) return {arg};
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(arg)) {
    if (!entry.is_regular_file()) continue;
    if (is_telemetry_document(entry.path(), prefix)) {
      paths.push_back(entry.path().string());
      continue;
    }
    const std::string name = entry.path().filename().string();
    if (!looks_like_telemetry(name)) continue;
    bool known = false;
    for (const char* p : kKnownPrefixes) {
      if (has_prefix(name, p)) {
        known = true;
        break;
      }
    }
    if (!known) unknown.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  std::sort(unknown.begin(), unknown.end());
  return paths;
}

}  // namespace

int main(int argc, char** argv) {
  std::string prefix = "BENCH_";
  int first = 1;
  if (first < argc && std::strncmp(argv[first], "--prefix=", 9) == 0) {
    prefix = argv[first] + 9;
    ++first;
  }
  if (argc - first < 2) {
    std::fprintf(
        stderr,
        "usage: %s [--prefix=NAME_] <schema.json> <document.json | dir> "
        "[...]\n",
        argv[0]);
    return 2;
  }
  Value schema;
  try {
    schema = varpred::obs::json::parse_file(argv[first]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::vector<std::string> documents;
  std::vector<std::string> unknown;
  for (int i = first + 1; i < argc; ++i) {
    for (std::string& path : expand_input(argv[i], prefix, unknown)) {
      documents.push_back(std::move(path));
    }
  }
  if (documents.empty() && unknown.empty()) {
    std::fprintf(stderr, "%s: no documents to validate\n", argv[0]);
    return 2;
  }

  std::size_t passed = 0;
  for (const std::string& path : documents) {
    bool ok = false;
    try {
      ok = validate(varpred::obs::json::parse_file(path), schema, path + "#");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
    }
    std::printf("%s: %s\n", path.c_str(), ok ? "ok" : "FAIL");
    passed += ok;
  }
  for (const std::string& path : unknown) {
    std::fprintf(stderr,
                 "%s: telemetry-shaped document matches no known schema "
                 "prefix (known: BENCH_ QUALITY_)\n",
                 path.c_str());
    std::printf("%s: FAIL\n", path.c_str());
  }
  const std::size_t total = documents.size() + unknown.size();
  std::printf("%zu/%zu documents ok\n", passed, total);
  return passed == total ? 0 : 1;
}
