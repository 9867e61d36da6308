#include "obs/ledger.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>

namespace varpred::obs {

namespace {

std::string string_field(const json::Value& doc, std::string_view key) {
  const json::Value* v = doc.find(key);
  return v != nullptr && v->is_string() ? v->str : std::string();
}

constexpr double kSeedMax = 0x1p64 - 0x1p11;  // largest double below 2^64

/// The integer field `key`, or `fallback` when absent.
std::uint64_t integer_field(const json::Value& doc, std::string_view key,
                            std::uint64_t fallback, double max = 0x1p53) {
  const json::Value* v = doc.find(key);
  return v == nullptr ? fallback : parse_count(*v, key, max);
}

/// Rethrows `e` prefixed with `where`, keeping "the bytes were rejected"
/// (std::invalid_argument) apart from every other failure.
[[noreturn]] void rethrow_at(const std::string& where,
                             const std::exception& e) {
  const std::string what = where + ": " + e.what();
  if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr) {
    throw std::invalid_argument(what);
  }
  throw std::runtime_error(what);
}

void for_each_line(const std::string& path,
                   const std::function<void(const json::Value&)>& visit) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(path + ": cannot open");
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      visit(json::parse(line));
    } catch (const std::exception& e) {
      rethrow_at(path + ":" + std::to_string(lineno), e);
    }
  }
}

}  // namespace

std::string Provenance::describe() const {
  return "git=" + git + " host=" + hostname + " seed=" + std::to_string(seed) +
         " workers=" + std::to_string(workers) +
         " repeat=" + std::to_string(repeat) + " obs=" + obs_mode +
         (fast ? " fast" : "");
}

Provenance parse_provenance(const json::Value& doc) {
  if (!doc.is_object()) {
    throw std::invalid_argument("document is not an object");
  }
  Provenance p;
  p.bench = string_field(doc, "bench");
  if (p.bench.empty()) throw std::invalid_argument("missing \"bench\"");
  p.git = string_field(doc, "git");
  p.hostname = string_field(doc, "hostname");
  p.timestamp = string_field(doc, "timestamp");
  p.obs_mode = string_field(doc, "obs_mode");
  p.seed = integer_field(doc, "seed", 0, kSeedMax);
  p.runs = integer_field(doc, "runs", 0);
  p.workers = integer_field(doc, "workers", 0);
  p.repeat = integer_field(doc, "repeat", 1);
  if (p.repeat == 0) p.repeat = 1;
  if (const json::Value* fast = doc.find("fast");
      fast != nullptr && fast->is_bool()) {
    p.fast = fast->boolean;
  }
  return p;
}

std::uint64_t parse_count(const json::Value& value, std::string_view key,
                          double max) {
  // A plain double -> integer cast would wrap -1 to 2^64 - 1, read 1e300
  // as 0 and 1.5 as 1, so every other value is rejected instead.
  if (!value.is_number() || !(value.num >= 0.0) || value.num > max ||
      std::floor(value.num) != value.num) {
    throw std::invalid_argument("\"" + std::string(key) +
                                "\" must be an integer in [0, " +
                                json::number(max) + "], got " +
                                json::dump(value));
  }
  return static_cast<std::uint64_t>(value.num);
}

void for_each_document(const std::string& path,
                       const std::function<void(const json::Value&)>& visit) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(path)) {
      if (entry.is_regular_file() && entry.path().extension() == ".jsonl") {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
    for (const std::string& file : files) for_each_line(file, visit);
    return;
  }
  if (path.ends_with(".jsonl")) {
    for_each_line(path, visit);
    return;
  }
  const json::Value doc = json::parse_file(path);
  try {
    visit(doc);
  } catch (const std::exception& e) {
    rethrow_at(path, e);
  }
}

void append_ledger(const std::string& path, const json::Value& doc) {
  std::ofstream out(path, std::ios::app);
  if (!out) throw std::runtime_error(path + ": cannot open for append");
  out << json::dump(doc) << "\n";
  // Flush before checking: a full disk or read-only mount often surfaces
  // only when the buffered bytes hit the file, and a ledger line that
  // silently failed to append would let a gate pass vacuously.
  out.flush();
  if (!out) throw std::runtime_error(path + ": write failed");
}

}  // namespace varpred::obs
