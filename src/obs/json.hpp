// Minimal JSON support for the observability sinks: string escaping and
// locale-independent number formatting for the writers, plus a small
// recursive-descent parser used to read run documents and ledger lines
// back (obs/run_document.hpp, the test round-trips).
//
// The parser accepts the JSON this repo emits (and standard JSON in
// general: objects, arrays, strings with \-escapes incl. \uXXXX, numbers,
// true/false/null). It is not a streaming parser and keeps the whole
// document in memory — telemetry files are small.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace varpred::obs::json {

/// Escapes `text` for inclusion inside a JSON string literal (quotes not
/// added).
std::string escape(std::string_view text);

/// Formats a double as a JSON number: shortest round-trip-safe decimal,
/// never locale-dependent, "0" for negative zero, and integral values
/// without a trailing ".0". Non-finite values render as 0 (JSON has no
/// Inf/NaN).
std::string number(double value);

/// Sentinel strings dump() emits for non-finite numbers (JSON has no
/// Inf/NaN literal). numeric_value() maps them back, so documents carrying
/// legitimate non-finite metrics — e.g. the wasserstein1_normalized
/// infinity sentinel in quality telemetry — round-trip losslessly.
inline constexpr std::string_view kNanSentinel = "NaN";
inline constexpr std::string_view kPosInfSentinel = "Infinity";
inline constexpr std::string_view kNegInfSentinel = "-Infinity";

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<Value> array;
  /// Insertion-ordered; duplicate keys keep both entries (find returns the
  /// first).
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// First member with this key, or nullptr (also nullptr on non-objects).
  const Value* find(std::string_view key) const;

  /// Reads this value as a double, accepting both plain numbers and the
  /// non-finite string sentinels ("NaN" / "Infinity" / "-Infinity").
  /// Returns false (leaving `out` untouched) for anything else.
  bool numeric_value(double& out) const;
};

/// Factory helpers for building documents programmatically.
Value make_string(std::string text);
Value make_bool(bool value);
/// Non-finite doubles become the string sentinels, so dump() emits valid
/// JSON that numeric_value() reads back losslessly.
Value make_number(double value);

/// Parses a complete JSON document; throws std::invalid_argument (with a
/// byte offset in the message) on malformed input, trailing garbage, or
/// nesting deeper than kMaxDepth (the parser is recursive-descent; the
/// guard turns a potential stack overflow into a clean error).
Value parse(std::string_view text);

/// Reads and parses a whole file. Throws std::runtime_error whose message
/// starts with `path` when the file cannot be opened or does not parse.
Value parse_file(const std::string& path);

/// Maximum container nesting depth parse() accepts.
inline constexpr std::size_t kMaxDepth = 256;

/// Serializes a Value back to compact JSON text (strings escaped, numbers
/// via number()). Inverse of parse() up to number formatting.
std::string dump(const Value& value);
void dump(const Value& value, std::string& out);

}  // namespace varpred::obs::json
