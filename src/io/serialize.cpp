#include "io/serialize.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace varpred::io {
namespace {

std::string format_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// Every numeric token in a model file was written by Writer, so any token
// that does not parse cleanly end-to-end means the file is truncated or
// corrupted — fail loudly instead of strtod's silent 0.0.
std::uint64_t strict_u64(const std::string& token, const std::string& name) {
  const auto parsed = parse_u64_strict(token);
  VARPRED_CHECK_ARG(parsed.has_value(), "corrupt integer field " + name +
                                            ": \"" + token + "\"");
  return *parsed;
}

std::int64_t strict_i64(const std::string& token, const std::string& name) {
  const auto parsed = parse_i64_strict(token);
  VARPRED_CHECK_ARG(parsed.has_value(), "corrupt integer field " + name +
                                            ": \"" + token + "\"");
  return *parsed;
}

double strict_f64(const std::string& token, const std::string& name) {
  const auto parsed = parse_double_strict(token);
  VARPRED_CHECK_ARG(parsed.has_value(),
                    "corrupt numeric field " + name + ": \"" + token + "\"");
  return *parsed;
}

// Counts and lengths in a file are untrusted: buffers grow with the data
// actually read and reserve at most this many elements up front, so a
// corrupt count fails at the end of the stream instead of allocating it.
constexpr std::uint64_t kMaxReserve = 4096;

template <typename T, typename Parse>
std::vector<T> read_values(std::uint64_t n, Parse parse) {
  std::vector<T> out;
  out.reserve(static_cast<std::size_t>(std::min(n, kMaxReserve)));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(parse());
  return out;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void write_checksummed(std::ostream& out, const std::string& body) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fnv1a64(body)));
  out << body << "checksum " << hex << '\n';
}

std::string read_checksummed(std::istream& in) {
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  // The trailer is the last "checksum <hex>" line. A body always ends in
  // '\n' (every Writer field does), so search for the last occurrence of
  // the trailer start; anything after the hash must be whitespace.
  const std::string marker = "\nchecksum ";
  const std::size_t pos = all.rfind(marker);
  VARPRED_CHECK_ARG(pos != std::string::npos,
                    "model file has no checksum trailer (truncated, or "
                    "written by a pre-checksum version)");
  const std::size_t hex_begin = pos + marker.size();
  std::size_t hex_end = hex_begin;
  while (hex_end < all.size() &&
         std::isxdigit(static_cast<unsigned char>(all[hex_end]))) {
    ++hex_end;
  }
  const std::string hex = all.substr(hex_begin, hex_end - hex_begin);
  for (std::size_t i = hex_end; i < all.size(); ++i) {
    VARPRED_CHECK_ARG(std::isspace(static_cast<unsigned char>(all[i])),
                      "model file has data after the checksum trailer");
  }
  VARPRED_CHECK_ARG(hex.size() == 16,
                    "model file checksum trailer is malformed");
  std::uint64_t recorded = 0;
  for (const char c : hex) {
    const int digit = c <= '9'   ? c - '0'
                      : c <= 'F' ? c - 'A' + 10
                                 : c - 'a' + 10;
    recorded = (recorded << 4) | static_cast<std::uint64_t>(digit);
  }
  std::string body = all.substr(0, pos + 1);  // keep the trailing '\n'
  VARPRED_CHECK_ARG(fnv1a64(body) == recorded,
                    "model file checksum mismatch: file is corrupt");
  return body;
}

void Writer::tag(const std::string& name) { out_ << name << '\n'; }

void Writer::u64(const std::string& name, std::uint64_t value) {
  out_ << name << ' ' << value << '\n';
}

void Writer::i64(const std::string& name, std::int64_t value) {
  out_ << name << ' ' << value << '\n';
}

void Writer::f64(const std::string& name, double value) {
  out_ << name << ' ' << format_double(value) << '\n';
}

void Writer::boolean(const std::string& name, bool value) {
  out_ << name << ' ' << (value ? 1 : 0) << '\n';
}

void Writer::text(const std::string& name, const std::string& value) {
  // Length-prefixed so arbitrary characters (except newline-in-name cases)
  // survive; the payload is written verbatim after a single space.
  out_ << name << ' ' << value.size() << ':' << value << '\n';
}

void Writer::vec(const std::string& name, std::span<const double> values) {
  out_ << name << ' ' << values.size();
  for (const double v : values) out_ << ' ' << format_double(v);
  out_ << '\n';
}

void Writer::vec_u64(const std::string& name,
                     std::span<const std::uint64_t> values) {
  out_ << name << ' ' << values.size();
  for (const auto v : values) out_ << ' ' << v;
  out_ << '\n';
}

std::string Reader::next_token(const std::string& context) {
  if (has_peeked_) {
    has_peeked_ = false;
    return std::move(peeked_);
  }
  std::string token;
  if (!(in_ >> token)) {
    VARPRED_CHECK_ARG(false, "serialized stream truncated at " + context);
  }
  return token;
}

std::string Reader::peek() {
  if (!has_peeked_) {
    if (in_ >> peeked_) {
      has_peeked_ = true;
    } else {
      return "";
    }
  }
  return peeked_;
}

void Reader::expect_label(const std::string& name) {
  const auto token = next_token(name);
  VARPRED_CHECK_ARG(token == name,
                    "expected field '" + name + "', found '" + token + "'");
}

void Reader::tag(const std::string& expected) { expect_label(expected); }

std::uint64_t Reader::u64(const std::string& name) {
  expect_label(name);
  return strict_u64(next_token(name), name);
}

std::int64_t Reader::i64(const std::string& name) {
  expect_label(name);
  return strict_i64(next_token(name), name);
}

double Reader::f64(const std::string& name) {
  expect_label(name);
  return strict_f64(next_token(name), name);
}

bool Reader::boolean(const std::string& name) { return u64(name) != 0; }

std::string Reader::text(const std::string& name) {
  expect_label(name);
  // Consume "len:payload" -- read up to ':', then exactly len bytes.
  VARPRED_CHECK_ARG(!has_peeked_, "internal reader state error");
  std::string len_str;
  char c;
  while (in_.get(c)) {
    if (c == ':') break;
    if (!std::isspace(static_cast<unsigned char>(c))) len_str += c;
  }
  VARPRED_CHECK_ARG(!len_str.empty(), "malformed string field " + name);
  std::uint64_t left = strict_u64(len_str, name);
  std::string value;
  char chunk[kMaxReserve];
  while (left > 0) {
    const auto want = static_cast<std::streamsize>(std::min(left, kMaxReserve));
    in_.read(chunk, want);
    value.append(chunk, static_cast<std::size_t>(in_.gcount()));
    VARPRED_CHECK_ARG(in_.gcount() == want, "truncated string field " + name);
    left -= static_cast<std::uint64_t>(want);
  }
  return value;
}

std::vector<double> Reader::vec(const std::string& name) {
  expect_label(name);
  const auto n = strict_u64(next_token(name), name);
  return read_values<double>(
      n, [&] { return strict_f64(next_token(name), name); });
}

std::vector<std::uint64_t> Reader::vec_u64(const std::string& name) {
  expect_label(name);
  const auto n = strict_u64(next_token(name), name);
  return read_values<std::uint64_t>(
      n, [&] { return strict_u64(next_token(name), name); });
}

}  // namespace varpred::io
