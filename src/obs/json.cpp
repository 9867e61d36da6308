#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace varpred::obs::json {

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  if (value == 0.0) return "0";  // also folds -0.0
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", value);
    return buf;
  }
  // %.17g round-trips any double; try shorter forms first for readability.
  char buf[40];
  for (const int precision : {6, 9, 12, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

const Value* Value::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

bool Value::numeric_value(double& out) const {
  if (type == Type::kNumber) {
    out = num;
    return true;
  }
  if (type == Type::kString) {
    if (str == kNanSentinel) {
      out = std::nan("");
      return true;
    }
    if (str == kPosInfSentinel) {
      out = std::numeric_limits<double>::infinity();
      return true;
    }
    if (str == kNegInfSentinel) {
      out = -std::numeric_limits<double>::infinity();
      return true;
    }
  }
  return false;
}

Value make_string(std::string text) {
  Value v;
  v.type = Value::Type::kString;
  v.str = std::move(text);
  return v;
}

Value make_bool(bool value) {
  Value v;
  v.type = Value::Type::kBool;
  v.boolean = value;
  return v;
}

Value make_number(double value) {
  if (!std::isfinite(value)) {
    std::string_view sentinel = kNanSentinel;
    if (value > 0.0) sentinel = kPosInfSentinel;
    if (value < 0.0) sentinel = kNegInfSentinel;
    return make_string(std::string(sentinel));
  }
  Value v;
  v.type = Value::Type::kNumber;
  v.num = value;
  return v;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::invalid_argument("json: " + std::string(what) + " at offset " +
                                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        Value v;
        v.type = Value::Type::kString;
        v.str = parse_string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail("bad literal");
        Value v;
        v.type = Value::Type::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail("bad literal");
        Value v;
        v.type = Value::Type::kBool;
        v.boolean = false;
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return Value{};
      }
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    expect('{');
    Value v;
    v.type = Value::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        --depth_;
        return v;
      }
      fail("expected ',' or '}'");
    }
  }

  Value parse_array() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    expect('[');
    Value v;
    v.type = Value::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        --depth_;
        return v;
      }
      fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // UTF-8 encode the code point (surrogate pairs unsupported; the
          // telemetry writers never emit them).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    Value v;
    v.type = Value::Type::kNumber;
    v.num = parsed;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(path + ": cannot open");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse(buffer.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void dump(const Value& value, std::string& out) {
  switch (value.type) {
    case Value::Type::kNull:
      out += "null";
      break;
    case Value::Type::kBool:
      out += value.boolean ? "true" : "false";
      break;
    case Value::Type::kNumber:
      if (!std::isfinite(value.num)) {
        // JSON has no Inf/NaN literal; emit the string sentinels that
        // Value::numeric_value() maps back, so non-finite metrics (the
        // wasserstein1_normalized infinity sentinel) round-trip.
        out += '"';
        out += value.num > 0.0   ? kPosInfSentinel
               : value.num < 0.0 ? kNegInfSentinel
                                 : kNanSentinel;
        out += '"';
        break;
      }
      out += number(value.num);
      break;
    case Value::Type::kString:
      out += '"';
      out += escape(value.str);
      out += '"';
      break;
    case Value::Type::kArray: {
      out += '[';
      bool first = true;
      for (const auto& item : value.array) {
        if (!first) out += ',';
        first = false;
        dump(item, out);
      }
      out += ']';
      break;
    }
    case Value::Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, item] : value.object) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += escape(key);
        out += "\":";
        dump(item, out);
      }
      out += '}';
      break;
    }
  }
}

std::string dump(const Value& value) {
  std::string out;
  dump(value, out);
  return out;
}

}  // namespace varpred::obs::json
