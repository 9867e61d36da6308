#include "serve/protocol.hpp"

#include <bit>
#include <cerrno>
#include <cstring>

#include <unistd.h>

#include "common/check.hpp"

namespace varpred::serve {

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kPing:
      return "ping";
    case MsgType::kPredict:
      return "predict";
    case MsgType::kSwap:
      return "swap";
    case MsgType::kList:
      return "list";
    case MsgType::kStats:
      return "stats";
    case MsgType::kPingOk:
      return "ping_ok";
    case MsgType::kPredictOk:
      return "predict_ok";
    case MsgType::kSwapOk:
      return "swap_ok";
    case MsgType::kListOk:
      return "list_ok";
    case MsgType::kStatsOk:
      return "stats_ok";
    case MsgType::kError:
      return "error";
  }
  VARPRED_CHECK_ARG(false, "unknown message type");
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformed:
      return "malformed";
    case ErrorCode::kUnknownModel:
      return "unknown_model";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kBadRequest:
      return "bad_request";
    case ErrorCode::kInternal:
      return "internal";
  }
  VARPRED_CHECK_ARG(false, "unknown error code");
}

namespace {

bool known_type(std::uint8_t raw) {
  switch (static_cast<MsgType>(raw)) {
    case MsgType::kPing:
    case MsgType::kPredict:
    case MsgType::kSwap:
    case MsgType::kList:
    case MsgType::kStats:
    case MsgType::kPingOk:
    case MsgType::kPredictOk:
    case MsgType::kSwapOk:
    case MsgType::kListOk:
    case MsgType::kStatsOk:
    case MsgType::kError:
      return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// WireWriter

void WireWriter::u8(std::uint8_t value) {
  buf_.push_back(static_cast<char>(value));
}

void WireWriter::u32(std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void WireWriter::u64(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void WireWriter::f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

void WireWriter::str(std::string_view value) {
  VARPRED_CHECK_ARG(value.size() <= kMaxFramePayload, "string too large");
  u32(static_cast<std::uint32_t>(value.size()));
  buf_.append(value);
}

void WireWriter::f64s(const std::vector<double>& values) {
  VARPRED_CHECK_ARG(values.size() <= kMaxFramePayload / 8,
                    "vector too large");
  u32(static_cast<std::uint32_t>(values.size()));
  for (const double v : values) f64(v);
}

// ---------------------------------------------------------------------------
// WireReader

void WireReader::need(std::size_t n) const {
  VARPRED_CHECK_ARG(pos_ + n <= data_.size(),
                    "malformed frame body: read past end");
}

std::uint8_t WireReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t WireReader::u32() {
  need(4);
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(data_[pos_ + i]))
             << (8 * i);
  }
  pos_ += 4;
  return value;
}

std::uint64_t WireReader::u64() {
  need(8);
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(data_[pos_ + i]))
             << (8 * i);
  }
  pos_ += 8;
  return value;
}

double WireReader::f64() { return std::bit_cast<double>(u64()); }

std::string WireReader::str() {
  const std::uint32_t len = u32();
  need(len);
  std::string out(data_.substr(pos_, len));
  pos_ += len;
  return out;
}

std::vector<double> WireReader::f64s() {
  const std::uint32_t count = u32();
  // Each element is 8 bytes, so the count is bounded by what the body can
  // actually hold — a lying count fails here, before any allocation.
  need(static_cast<std::size_t>(count) * 8);
  std::vector<double> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) out.push_back(f64());
  return out;
}

void WireReader::expect_done() const {
  VARPRED_CHECK_ARG(pos_ == data_.size(),
                    "malformed frame body: trailing bytes");
}

// ---------------------------------------------------------------------------
// Messages

std::string PredictRequest::body() const {
  WireWriter w;
  w.str(model);
  w.u64(version);
  w.u64(seed);
  w.u32(n_samples);
  w.u32(benchmark);
  w.u32(n_metrics);
  w.f64s(runtimes);
  w.f64s(counters);
  return w.take();
}

PredictRequest PredictRequest::parse(std::string_view body) {
  WireReader r(body);
  PredictRequest out;
  out.model = r.str();
  out.version = r.u64();
  out.seed = r.u64();
  out.n_samples = r.u32();
  out.benchmark = r.u32();
  out.n_metrics = r.u32();
  out.runtimes = r.f64s();
  out.counters = r.f64s();
  r.expect_done();
  return out;
}

std::string PredictResponse::body() const {
  WireWriter w;
  w.u64(version);
  w.u64(queue_ns);
  w.u64(compute_ns);
  w.f64s(samples);
  return w.take();
}

PredictResponse PredictResponse::parse(std::string_view body) {
  WireReader r(body);
  PredictResponse out;
  out.version = r.u64();
  out.queue_ns = r.u64();
  out.compute_ns = r.u64();
  out.samples = r.f64s();
  r.expect_done();
  return out;
}

std::string SwapRequest::body() const {
  WireWriter w;
  w.str(model);
  w.str(path);
  return w.take();
}

SwapRequest SwapRequest::parse(std::string_view body) {
  WireReader r(body);
  SwapRequest out;
  out.model = r.str();
  out.path = r.str();
  r.expect_done();
  return out;
}

std::string SwapResponse::body() const {
  WireWriter w;
  w.u64(version);
  return w.take();
}

SwapResponse SwapResponse::parse(std::string_view body) {
  WireReader r(body);
  SwapResponse out;
  out.version = r.u64();
  r.expect_done();
  return out;
}

std::string ListResponse::body() const {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const Entry& e : entries) {
    w.str(e.model);
    w.u64(e.version);
    w.str(e.source_system);
    w.str(e.source);
  }
  return w.take();
}

ListResponse ListResponse::parse(std::string_view body) {
  WireReader r(body);
  ListResponse out;
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    Entry e;
    e.model = r.str();
    e.version = r.u64();
    e.source_system = r.str();
    e.source = r.str();
    out.entries.push_back(std::move(e));
  }
  r.expect_done();
  return out;
}

std::string StatsResponse::body() const {
  WireWriter w;
  w.str(prometheus);
  return w.take();
}

StatsResponse StatsResponse::parse(std::string_view body) {
  WireReader r(body);
  StatsResponse out;
  out.prometheus = r.str();
  r.expect_done();
  return out;
}

std::string ErrorResponse::body() const {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(code));
  w.str(message);
  return w.take();
}

ErrorResponse ErrorResponse::parse(std::string_view body) {
  WireReader r(body);
  ErrorResponse out;
  out.code = static_cast<ErrorCode>(r.u32());
  // to_string names every ErrorCode and throws std::invalid_argument on any
  // other value, so it is the range check.
  to_string(out.code);
  out.message = r.str();
  r.expect_done();
  return out;
}

// ---------------------------------------------------------------------------
// Framing

std::string encode_frame(MsgType type, std::uint64_t trace_id,
                         std::string_view body) {
  VARPRED_CHECK_ARG(body.size() + 9 <= kMaxFramePayload,
                    "frame body exceeds kMaxFramePayload");
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(body.size() + 9));
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(trace_id);
  std::string out = w.take();
  out.append(body);
  return out;
}

namespace {

bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t wrote = ::write(fd, data, n);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (wrote == 0) return false;
    data += wrote;
    n -= static_cast<std::size_t>(wrote);
  }
  return true;
}

/// 1 = read n bytes, 0 = clean EOF before the first byte, -1 = error or
/// EOF mid-read.
int read_exact(int fd, char* data, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, data + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r == 0) return got == 0 ? 0 : -1;
    got += static_cast<std::size_t>(r);
  }
  return 1;
}

}  // namespace

bool write_frame(int fd, MsgType type, std::uint64_t trace_id,
                 std::string_view body) {
  const std::string bytes = encode_frame(type, trace_id, body);
  return write_all(fd, bytes.data(), bytes.size());
}

std::optional<Frame> read_frame(int fd) {
  char prefix[4];
  const int rc = read_exact(fd, prefix, sizeof(prefix));
  if (rc == 0) return std::nullopt;  // clean EOF between frames
  VARPRED_CHECK_ARG(rc == 1, "connection closed mid-frame");
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(
                  static_cast<unsigned char>(prefix[i]))
              << (8 * i);
  }
  VARPRED_CHECK_ARG(length >= 9, "malformed frame: payload shorter than "
                                 "header");
  VARPRED_CHECK_ARG(length <= kMaxFramePayload,
                    "malformed frame: payload exceeds the size cap");
  std::string payload(length, '\0');
  VARPRED_CHECK_ARG(read_exact(fd, payload.data(), length) == 1,
                    "connection closed mid-frame");
  WireReader r(payload);
  const std::uint8_t raw_type = r.u8();
  VARPRED_CHECK_ARG(known_type(raw_type), "malformed frame: unknown message "
                                          "type");
  Frame frame;
  frame.type = static_cast<MsgType>(raw_type);
  frame.trace_id = r.u64();
  frame.body = payload.substr(9);
  return frame;
}

}  // namespace varpred::serve
