// Serving subsystem tests: wire codec and framing, the versioned model
// registry (including checksum rejection of corrupt artifacts), the
// in-flight admission cap, the TCP server/client pair end-to-end, served
// bytes under concurrent connections, hot-swap liveness under concurrent
// load, and request trace-id propagation into the compute span.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/crosssystem.hpp"
#include "measure/corpus.hpp"
#include "obs/obs.hpp"
#include "serve/batcher.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace varpred {
namespace {

using serve::ErrorCode;
using serve::Frame;
using serve::MsgType;

// ---------------------------------------------------------------------------
// Shared fixtures. Training a cross-system predictor dominates this suite's
// runtime, so do it once and share the result (the predictor is immutable
// after training).

const core::CrossSystemPredictor& trained_predictor() {
  static const core::CrossSystemPredictor predictor = [] {
    const auto amd = measure::build_corpus(measure::SystemModel::amd(), 40, 7);
    const auto intel =
        measure::build_corpus(measure::SystemModel::intel(), 40, 7);
    core::CrossSystemPredictor p;
    p.train_all(amd, intel);
    return p;
  }();
  return predictor;
}

const std::string& trained_model_bytes() {
  static const std::string bytes = [] {
    std::ostringstream out;
    trained_predictor().save(out);
    return out.str();
  }();
  return bytes;
}

/// A registry-publishable instance (the predictor is move-only, so each
/// publish gets its own deserialized copy of the shared trained model).
core::CrossSystemPredictor fresh_predictor() {
  std::istringstream in(trained_model_bytes());
  return core::CrossSystemPredictor::load(in);
}

/// Probe runs measured on the predictor's source system, as a wire request.
serve::PredictRequest probe_request(std::uint64_t seed = 99,
                                    std::uint32_t n_samples = 64) {
  const auto runs =
      measure::measure_benchmark(0, measure::SystemModel::amd(), 6, 4242);
  serve::PredictRequest request;
  request.model = "demo";
  request.seed = seed;
  request.n_samples = n_samples;
  request.benchmark = static_cast<std::uint32_t>(runs.benchmark);
  request.n_metrics = static_cast<std::uint32_t>(runs.counters.cols());
  request.runtimes = runs.runtimes;
  request.counters.reserve(runs.run_count() * runs.counters.cols());
  for (std::size_t r = 0; r < runs.run_count(); ++r) {
    for (std::size_t m = 0; m < runs.counters.cols(); ++m) {
      request.counters.push_back(runs.counters.at(r, m));
    }
  }
  return request;
}

/// What the server must answer for `probe_request(seed, n_samples)`.
std::vector<double> expected_samples(std::uint64_t seed,
                                     std::uint32_t n_samples) {
  const auto runs =
      measure::measure_benchmark(0, measure::SystemModel::amd(), 6, 4242);
  Rng rng(seed);
  return trained_predictor().predict_distribution(runs, n_samples, rng);
}

std::string save_model_file(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  trained_predictor().save(out);
  return path;
}

// ---------------------------------------------------------------------------
// Body codec.

TEST(ServeProtocol, WirePrimitivesRoundTrip) {
  serve::WireWriter w;
  w.u8(7);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-2.5);
  w.str("hello");
  w.f64s({1.0, 0.5, -0.25});

  serve::WireReader r(w.bytes());
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), -2.5);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.f64s(), (std::vector<double>{1.0, 0.5, -0.25}));
  EXPECT_NO_THROW(r.expect_done());
}

TEST(ServeProtocol, ReaderOverrunThrows) {
  serve::WireReader r(std::string_view("ab"));
  EXPECT_THROW(r.u32(), std::invalid_argument);
}

TEST(ServeProtocol, ReaderLyingStringLengthThrows) {
  serve::WireWriter w;
  w.u32(100);  // claims 100 bytes follow
  w.u8('x');
  serve::WireReader r(w.bytes());
  EXPECT_THROW(r.str(), std::invalid_argument);
}

TEST(ServeProtocol, ReaderLyingVectorCountThrows) {
  serve::WireWriter w;
  w.u32(1u << 30);  // 2^30 doubles cannot fit in this body
  w.f64(1.0);
  serve::WireReader r(w.bytes());
  EXPECT_THROW(r.f64s(), std::invalid_argument);
}

TEST(ServeProtocol, TrailingBytesThrow) {
  serve::WireWriter w;
  w.u8(1);
  w.u8(2);
  serve::WireReader r(w.bytes());
  (void)r.u8();
  EXPECT_THROW(r.expect_done(), std::invalid_argument);
}

TEST(ServeProtocol, PredictRequestRoundTrip) {
  serve::PredictRequest request;
  request.model = "demo";
  request.version = 3;
  request.seed = 17;
  request.n_samples = 128;
  request.benchmark = 5;
  request.n_metrics = 2;
  request.runtimes = {1.0, 1.1, 0.9};
  request.counters = {1, 2, 3, 4, 5, 6};

  const auto back = serve::PredictRequest::parse(request.body());
  EXPECT_EQ(back.model, "demo");
  EXPECT_EQ(back.version, 3u);
  EXPECT_EQ(back.seed, 17u);
  EXPECT_EQ(back.n_samples, 128u);
  EXPECT_EQ(back.benchmark, 5u);
  EXPECT_EQ(back.n_metrics, 2u);
  EXPECT_EQ(back.runtimes, request.runtimes);
  EXPECT_EQ(back.counters, request.counters);
}

TEST(ServeProtocol, PredictRequestTrailingGarbageThrows) {
  serve::PredictRequest request;
  request.model = "demo";
  request.runtimes = {1.0};
  EXPECT_THROW(serve::PredictRequest::parse(request.body() + "x"),
               std::invalid_argument);
}

TEST(ServeProtocol, ResponsesRoundTrip) {
  serve::PredictResponse predict;
  predict.version = 2;
  predict.queue_ns = 1000;
  predict.compute_ns = 2000;
  predict.samples = {0.9, 1.0, 1.2};
  const auto p = serve::PredictResponse::parse(predict.body());
  EXPECT_EQ(p.version, 2u);
  EXPECT_EQ(p.queue_ns, 1000u);
  EXPECT_EQ(p.compute_ns, 2000u);
  EXPECT_EQ(p.samples, predict.samples);

  serve::SwapRequest swap{"demo", "/tmp/model.vp"};
  const auto s = serve::SwapRequest::parse(swap.body());
  EXPECT_EQ(s.model, "demo");
  EXPECT_EQ(s.path, "/tmp/model.vp");

  serve::SwapResponse swapped;
  swapped.version = 9;
  EXPECT_EQ(serve::SwapResponse::parse(swapped.body()).version, 9u);

  serve::ListResponse list;
  list.entries.push_back({"a", 1, "amd", "a.vp"});
  list.entries.push_back({"b", 4, "intel", "<inline>"});
  const auto l = serve::ListResponse::parse(list.body());
  ASSERT_EQ(l.entries.size(), 2u);
  EXPECT_EQ(l.entries[0].model, "a");
  EXPECT_EQ(l.entries[1].version, 4u);
  EXPECT_EQ(l.entries[1].source_system, "intel");
  EXPECT_EQ(l.entries[1].source, "<inline>");

  serve::StatsResponse stats{"varpred_serve_requests 3\n"};
  EXPECT_EQ(serve::StatsResponse::parse(stats.body()).prometheus,
            stats.prometheus);

  serve::ErrorResponse error{ErrorCode::kOverloaded, "queue full"};
  const auto e = serve::ErrorResponse::parse(error.body());
  EXPECT_EQ(e.code, ErrorCode::kOverloaded);
  EXPECT_EQ(e.message, "queue full");
}

TEST(ServeProtocol, EncodeFrameLayout) {
  const std::string wire =
      serve::encode_frame(MsgType::kPredict, 0x1122334455667788ull, "AB");
  ASSERT_EQ(wire.size(), 4u + 9u + 2u);
  // u32 LE payload length = 1 (type) + 8 (trace id) + 2 (body).
  EXPECT_EQ(static_cast<unsigned char>(wire[0]), 11u);
  EXPECT_EQ(static_cast<unsigned char>(wire[1]), 0u);
  EXPECT_EQ(static_cast<unsigned char>(wire[4]),
            static_cast<unsigned char>(MsgType::kPredict));
  EXPECT_EQ(static_cast<unsigned char>(wire[5]), 0x88u);  // trace id LE
  EXPECT_EQ(static_cast<unsigned char>(wire[12]), 0x11u);
  EXPECT_EQ(wire.substr(13), "AB");
}

// ---------------------------------------------------------------------------
// Framing over a socketpair.

struct SocketPair {
  int fd[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
  ~SocketPair() {
    if (fd[0] >= 0) close(fd[0]);
    if (fd[1] >= 0) close(fd[1]);
  }
  void close_writer() {
    close(fd[0]);
    fd[0] = -1;
  }
};

TEST(ServeFraming, RoundTripAndCleanEof) {
  SocketPair s;
  ASSERT_TRUE(serve::write_frame(s.fd[0], MsgType::kPredict, 42, "body"));
  const auto frame = serve::read_frame(s.fd[1]);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kPredict);
  EXPECT_EQ(frame->trace_id, 42u);
  EXPECT_EQ(frame->body, "body");

  s.close_writer();
  EXPECT_FALSE(serve::read_frame(s.fd[1]).has_value());  // clean EOF
}

TEST(ServeFraming, OversizedPayloadThrows) {
  SocketPair s;
  const std::uint32_t huge = serve::kMaxFramePayload + 1;
  unsigned char prefix[4] = {
      static_cast<unsigned char>(huge & 0xFF),
      static_cast<unsigned char>((huge >> 8) & 0xFF),
      static_cast<unsigned char>((huge >> 16) & 0xFF),
      static_cast<unsigned char>((huge >> 24) & 0xFF)};
  ASSERT_EQ(write(s.fd[0], prefix, 4), 4);
  s.close_writer();
  EXPECT_THROW(serve::read_frame(s.fd[1]), std::invalid_argument);
}

TEST(ServeFraming, UnknownMessageTypeThrows) {
  SocketPair s;
  ASSERT_TRUE(
      serve::write_frame(s.fd[0], static_cast<MsgType>(42), 0, ""));
  s.close_writer();
  EXPECT_THROW(serve::read_frame(s.fd[1]), std::invalid_argument);
}

TEST(ServeFraming, TruncatedFrameThrows) {
  SocketPair s;
  // Declares a 20-byte payload but delivers only 5 before EOF.
  unsigned char bytes[9] = {20, 0, 0, 0, 1, 0, 0, 0, 0};
  ASSERT_EQ(write(s.fd[0], bytes, 9), 9);
  s.close_writer();
  EXPECT_THROW(serve::read_frame(s.fd[1]), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Model registry.

TEST(ServeRegistry, PublishGetAndVersionHistory) {
  serve::ModelRegistry registry;
  EXPECT_EQ(registry.get("demo"), nullptr);

  EXPECT_EQ(registry.publish("demo", fresh_predictor()), 1u);
  EXPECT_EQ(registry.publish("demo", fresh_predictor()), 2u);
  EXPECT_EQ(registry.publish("other", fresh_predictor()), 1u);
  EXPECT_EQ(registry.size(), 2u);

  const auto latest = registry.get("demo");
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->version, 2u);
  EXPECT_EQ(latest->source, "<inline>");
  EXPECT_EQ(latest->source_system, "amd");

  // Old versions stay resolvable after a swap (in-flight requests hold
  // them), unknown versions do not.
  const auto v1 = registry.get("demo", 1);
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(registry.get("demo", 3), nullptr);
  EXPECT_EQ(registry.get("nope"), nullptr);

  const auto all = registry.list();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->name, "demo");
  EXPECT_EQ(all[0]->version, 2u);
  EXPECT_EQ(all[1]->name, "other");
}

TEST(ServeRegistry, PublishFileRejectsCorruption) {
  const std::string path = save_model_file("serve_registry_model.vp");

  serve::ModelRegistry registry;
  EXPECT_EQ(registry.publish_file("demo", path), 1u);
  EXPECT_EQ(registry.get("demo")->source, path);

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }

  // A flipped byte in the body must fail the checksum.
  const std::string flipped_path = "serve_registry_flipped.vp";
  {
    std::string flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x01;
    std::ofstream out(flipped_path, std::ios::binary);
    out << flipped;
  }
  EXPECT_THROW(registry.publish_file("demo", flipped_path),
               std::invalid_argument);

  // Truncation loses the checksum trailer.
  const std::string truncated_path = "serve_registry_truncated.vp";
  {
    std::ofstream out(truncated_path, std::ios::binary);
    out << bytes.substr(0, bytes.size() / 2);
  }
  EXPECT_THROW(registry.publish_file("demo", truncated_path),
               std::invalid_argument);

  EXPECT_THROW(registry.publish_file("demo", "no_such_file.vp"),
               std::invalid_argument);

  // Failed publishes left the registry unchanged.
  EXPECT_EQ(registry.get("demo")->version, 1u);

  std::remove(path.c_str());
  std::remove(flipped_path.c_str());
  std::remove(truncated_path.c_str());
}

// ---------------------------------------------------------------------------
// Admission: the in-flight cap and typed compute errors.

TEST(ServeBatcher, OverloadRejectsAtQueueMax) {
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  int computing = 0;

  serve::Batcher::Config config;
  config.queue_max = 2;
  config.compute = [&](const serve::Batcher::Item&) {
    std::unique_lock<std::mutex> lock(gate_mu);
    ++computing;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return gate_open; });
    return std::vector<double>{1.0};
  };
  serve::Batcher batcher(config);

  serve::Batcher::Item item;
  item.request.runtimes = {1.0};

  // Two items hold both in-flight slots, each blocked inside compute on its
  // own thread.
  std::vector<std::optional<serve::ServeResult>> results(2);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < results.size(); ++i) {
    threads.emplace_back([&, i] { results[i] = batcher.admit(item); });
  }
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return computing == 2; });
  }

  // A third admit is rejected synchronously, without computing.
  EXPECT_FALSE(batcher.admit(item).has_value());

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
    EXPECT_EQ(computing, 2);
  }
  gate_cv.notify_all();
  for (auto& t : threads) t.join();
  for (const auto& result : results) {
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->ok);
    EXPECT_EQ(result->response.samples, std::vector<double>{1.0});
  }

  // The slots are free again once the gated items complete.
  const auto after = batcher.admit(item);
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(after->ok);
}

TEST(ServeBatcher, ComputeExceptionsMapToTypedErrors) {
  serve::Batcher::Config config;
  config.compute = [](const serve::Batcher::Item& item)
      -> std::vector<double> {
    if (item.request.model == "bad") {
      throw std::invalid_argument("bad shape");
    }
    throw std::runtime_error("boom");
  };
  serve::Batcher batcher(config);

  serve::Batcher::Item bad;
  bad.request.model = "bad";
  const auto bad_result = batcher.admit(bad);
  ASSERT_TRUE(bad_result.has_value());
  EXPECT_FALSE(bad_result->ok);
  EXPECT_EQ(bad_result->code, ErrorCode::kBadRequest);
  EXPECT_EQ(bad_result->message, "bad shape");

  const auto internal_result = batcher.admit(serve::Batcher::Item{});
  ASSERT_TRUE(internal_result.has_value());
  EXPECT_FALSE(internal_result->ok);
  EXPECT_EQ(internal_result->code, ErrorCode::kInternal);
  EXPECT_EQ(internal_result->message, "boom");
}

// ---------------------------------------------------------------------------
// Server + client end to end over loopback TCP.

TEST(ServeBatcher, ValidateRejectsEachShapeViolation) {
  serve::PredictRequest ok;
  ok.n_samples = 16;
  ok.n_metrics = 2;
  ok.runtimes = {1.0, 1.1, 0.9};
  ok.counters = {1, 2, 3, 4, 5, 6};
  EXPECT_NO_THROW(serve::validate_predict_request(ok));

  auto no_runs = ok;
  no_runs.runtimes.clear();
  no_runs.counters.clear();
  auto no_samples = ok;
  no_samples.n_samples = 0;
  auto too_many_samples = ok;
  too_many_samples.n_samples = (1u << 20) + 1;
  auto ragged = ok;
  ragged.counters.pop_back();
  auto zero_runtime = ok;
  zero_runtime.runtimes[1] = 0.0;
  auto negative_runtime = ok;
  negative_runtime.runtimes[2] = -1.0;
  auto infinite_runtime = ok;
  infinite_runtime.runtimes[0] = std::numeric_limits<double>::infinity();
  auto nan_counter = ok;
  nan_counter.counters[3] = std::numeric_limits<double>::quiet_NaN();
  auto infinite_counter = ok;
  infinite_counter.counters[4] = std::numeric_limits<double>::infinity();
  for (const auto* bad : {&no_runs, &no_samples, &too_many_samples, &ragged,
                          &zero_runtime, &negative_runtime,
                          &infinite_runtime, &nan_counter,
                          &infinite_counter}) {
    EXPECT_THROW(serve::validate_predict_request(*bad), std::invalid_argument);
  }
  auto at_cap = ok;
  at_cap.n_samples = 1u << 20;
  EXPECT_NO_THROW(serve::validate_predict_request(at_cap));
}

TEST(ServeEndToEnd, PredictMatchesDirectComputation) {
  serve::ModelRegistry registry;
  registry.publish("demo", fresh_predictor());
  serve::Server server(registry, serve::ServerConfig{});
  serve::Client client(server.port());
  EXPECT_TRUE(client.ping());

  const auto outcome = client.predict(probe_request(99, 64), 0xC0FFEE);
  ASSERT_TRUE(outcome.ok) << outcome.message;
  EXPECT_EQ(outcome.response.version, 1u);
  EXPECT_EQ(outcome.response.samples, expected_samples(99, 64));

  // Same request, same seed: byte-identical distribution (per-request Rng).
  const auto again = client.predict(probe_request(99, 64));
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.response.samples, outcome.response.samples);

  // Different seed: a different draw.
  const auto other = client.predict(probe_request(100, 64));
  ASSERT_TRUE(other.ok);
  EXPECT_NE(other.response.samples, outcome.response.samples);
}

TEST(ServeEndToEnd, ConcurrentConnectionsMatchDirectComputation) {
  serve::ModelRegistry registry;
  registry.publish("demo", fresh_predictor());
  serve::Server server(registry, serve::ServerConfig{});
  const auto model = registry.get("demo");

  // Each connection sends its own seed several times at once with the
  // others; every reply must be the bytes default_compute gives for that
  // request, whichever threads computed the rest.
  constexpr int kConnections = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<double>> expected(kConnections);
  std::vector<std::vector<std::vector<double>>> replies(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    serve::Batcher::Item item;
    item.request = probe_request(500 + c, 32);
    item.model = model;
    expected[c] = serve::default_compute(item);
  }
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      serve::Client client(server.port());
      const auto request = probe_request(500 + c, 32);
      for (int round = 0; round < kRounds; ++round) {
        const auto outcome = client.predict(request);
        replies[c].push_back(outcome.ok ? outcome.response.samples
                                        : std::vector<double>{});
      }
    });
  }
  for (auto& t : clients) t.join();

  for (int c = 0; c < kConnections; ++c) {
    ASSERT_EQ(replies[c].size(), static_cast<std::size_t>(kRounds));
    for (const auto& samples : replies[c]) {
      ASSERT_EQ(samples.size(), expected[c].size()) << "connection " << c;
      EXPECT_EQ(std::memcmp(samples.data(), expected[c].data(),
                            samples.size() * sizeof(double)),
                0)
          << "connection " << c;
    }
  }
  EXPECT_NE(expected[0], expected[1]);
}

TEST(ServeEndToEnd, TypedErrorsComeBackInBand) {
  serve::ModelRegistry registry;
  registry.publish("demo", fresh_predictor());
  serve::Server server(registry, serve::ServerConfig{});
  serve::Client client(server.port());

  auto unknown = probe_request();
  unknown.model = "nope";
  const auto u = client.predict(unknown);
  EXPECT_FALSE(u.ok);
  EXPECT_EQ(u.code, ErrorCode::kUnknownModel);

  auto unknown_version = probe_request();
  unknown_version.version = 7;
  const auto v = client.predict(unknown_version);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.code, ErrorCode::kUnknownModel);

  auto bad = probe_request();
  bad.runtimes.clear();
  bad.counters.clear();
  const auto b = client.predict(bad);
  EXPECT_FALSE(b.ok);
  EXPECT_EQ(b.code, ErrorCode::kBadRequest);

  // The connection survives every typed error.
  EXPECT_TRUE(client.ping());
}

TEST(ServeEndToEnd, MalformedBodyAnsweredInBandConnectionSurvives) {
  serve::ModelRegistry registry;
  registry.publish("demo", fresh_predictor());
  serve::Server server(registry, serve::ServerConfig{});

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // A predict frame whose body is garbage decodes to kError kMalformed;
  // the frame boundary is intact, so the connection stays usable.
  ASSERT_TRUE(serve::write_frame(fd, MsgType::kPredict, 5, "garbage"));
  auto reply = serve::read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kError);
  EXPECT_EQ(reply->trace_id, 5u);
  EXPECT_EQ(serve::ErrorResponse::parse(reply->body).code,
            ErrorCode::kMalformed);

  ASSERT_TRUE(serve::write_frame(fd, MsgType::kPing, 6, ""));
  reply = serve::read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kPingOk);
  close(fd);
}

TEST(ServeEndToEnd, SwapListAndStats) {
  // RED metrics are recorded only when observability is on (daemon default).
  obs::reset();
  obs::set_mode(obs::Mode::kSummary);
  const std::string path = save_model_file("serve_swap_model.vp");
  serve::ModelRegistry registry;
  registry.publish("demo", fresh_predictor());
  serve::Server server(registry, serve::ServerConfig{});
  serve::Client client(server.port());

  EXPECT_EQ(client.swap("demo", path), 2u);
  EXPECT_THROW(client.swap("demo", "no_such_file.vp"),
               std::invalid_argument);

  const auto list = client.list();
  ASSERT_EQ(list.entries.size(), 1u);
  EXPECT_EQ(list.entries[0].model, "demo");
  EXPECT_EQ(list.entries[0].version, 2u);
  EXPECT_EQ(list.entries[0].source, path);
  EXPECT_EQ(list.entries[0].source_system, "amd");

  // The new version serves; the pre-swap version stays resolvable.
  auto pinned = probe_request();
  pinned.version = 1;
  const auto old = client.predict(pinned);
  ASSERT_TRUE(old.ok);
  EXPECT_EQ(old.response.version, 1u);
  const auto fresh = client.predict(probe_request());
  ASSERT_TRUE(fresh.ok);
  EXPECT_EQ(fresh.response.version, 2u);

  const std::string stats = client.stats();
  EXPECT_NE(stats.find("varpred_serve_predict_requests"), std::string::npos);
  EXPECT_NE(stats.find("varpred_serve_predict_demo_v2_requests"),
            std::string::npos);
  std::remove(path.c_str());
  obs::set_mode(obs::Mode::kOff);
  obs::reset();
}

TEST(ServeEndToEnd, HotSwapMidLoadDropsZeroRequests) {
  serve::ModelRegistry registry;
  registry.publish("demo", fresh_predictor());
  serve::ServerConfig config;
  config.queue_max = 1024;  // this test measures drops, not admission
  serve::Server server(registry, config);

  constexpr int kThreads = 3;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> saw_v2{false};
  std::mutex versions_mu;
  std::set<std::uint64_t> versions;

  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      serve::Client client(server.port());
      const auto request = probe_request(1000 + t, 16);
      while (!done.load()) {
        const auto outcome = client.predict(request);
        if (!outcome.ok) {
          failures.fetch_add(1);
          continue;
        }
        completed.fetch_add(1);
        {
          std::lock_guard<std::mutex> lock(versions_mu);
          versions.insert(outcome.response.version);
        }
        if (outcome.response.version == 2) saw_v2.store(true);
      }
    });
  }

  // Let v1 serve some traffic, hot-swap, then wait until v2 responses flow.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (completed.load() < 8 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  registry.publish("demo", fresh_predictor());
  while (!saw_v2.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true);
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);  // zero dropped or failed requests
  EXPECT_TRUE(versions.count(1) == 1 && versions.count(2) == 1)
      << "expected responses from both model versions across the swap";
}

// ---------------------------------------------------------------------------
// Trace-id propagation.

TEST(ServeTracing, TraceIdScopeNestsAndRestores) {
  EXPECT_EQ(obs::current_trace_id(), 0u);
  {
    obs::TraceIdScope outer(11);
    EXPECT_EQ(obs::current_trace_id(), 11u);
    {
      obs::TraceIdScope inner(22);
      EXPECT_EQ(obs::current_trace_id(), 22u);
    }
    EXPECT_EQ(obs::current_trace_id(), 11u);
  }
  EXPECT_EQ(obs::current_trace_id(), 0u);
}

TEST(ServeTracing, ComputeSpanNestsInRequestSpanUnderClientTraceId) {
  obs::reset();
  obs::set_mode(obs::Mode::kTrace);

  constexpr std::uint64_t kTraceId = 0xFEEDFACE;
  {
    serve::ModelRegistry registry;
    registry.publish("demo", fresh_predictor());
    serve::Server server(registry, serve::ServerConfig{});
    serve::Client client(server.port());
    const auto outcome = client.predict(probe_request(7, 16), kTraceId);
    ASSERT_TRUE(outcome.ok);
    server.stop();  // joins every thread: all spans are closed
  }

  std::vector<obs::TraceEvent> request_spans;
  std::vector<obs::TraceEvent> compute_spans;
  for (const auto& event : obs::trace_events()) {
    if (event.name == "serve.request" && event.trace_id == kTraceId) {
      request_spans.push_back(event);
    }
    if (event.name == "serve.compute") compute_spans.push_back(event);
  }
  obs::set_mode(obs::Mode::kOff);
  obs::reset();

  // The predict computes on the connection thread that decoded it: its
  // serve.compute span carries the client's trace id and lies inside the
  // request's serve.request span, on the same thread.
  ASSERT_EQ(request_spans.size(), 1u);
  ASSERT_EQ(compute_spans.size(), 1u);
  const auto& request = request_spans[0];
  const auto& compute = compute_spans[0];
  EXPECT_EQ(compute.trace_id, kTraceId);
  EXPECT_EQ(compute.tid, request.tid);
  EXPECT_GE(compute.start_ns, request.start_ns);
  EXPECT_LE(compute.start_ns + compute.dur_ns,
            request.start_ns + request.dur_ns);
}

// ---------------------------------------------------------------------------
// Prometheus exposition under concurrent load (TSan coverage): worker
// threads hammer the serve metrics while the stats path snapshots and
// renders the registry.

TEST(ServeStats, PrometheusSnapshotUnderConcurrentLoad) {
  obs::reset();
  obs::set_mode(obs::Mode::kSummary);

  // Register the metrics up front: on a single-core host the snapshot loop
  // below can run to completion before any worker thread is scheduled, and
  // an unregistered name would be absent from those early snapshots.
  obs::Registry::global().counter("serve.predict.requests").add(1);
  obs::Registry::global().hdr("serve.predict.duration_ns").record(1);

  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      auto& registry = obs::Registry::global();
      auto& requests = registry.counter("serve.predict.requests");
      auto& duration = registry.hdr("serve.predict.duration_ns");
      auto& depth = registry.gauge("serve.connections");
      std::uint64_t i = 0;
      while (!done.load()) {
        requests.add(1);
        duration.record(1000 * (t + 1) + i % 997);
        depth.set(static_cast<double>(i % 32));
        ++i;
      }
    });
  }

  for (int round = 0; round < 50; ++round) {
    const auto snap = obs::Registry::global().snapshot();
    const std::string text = obs::prometheus_text(snap);
    EXPECT_NE(text.find("varpred_serve_predict_requests"),
              std::string::npos);
  }
  done.store(true);
  for (auto& t : workers) t.join();

  const auto snap = obs::Registry::global().snapshot();
  const std::string text = obs::prometheus_text(snap);
  EXPECT_NE(text.find("varpred_serve_predict_duration_ns"),
            std::string::npos);
  obs::set_mode(obs::Mode::kOff);
  obs::reset();
}

TEST(EnumNames, OutOfRangeMsgTypeThrows) {
  EXPECT_THROW(serve::to_string(static_cast<MsgType>(0xEE)),
               std::invalid_argument);
}

TEST(EnumNames, OutOfRangeErrorCodeThrows) {
  EXPECT_THROW(serve::to_string(static_cast<ErrorCode>(9999)),
               std::invalid_argument);
}

}  // namespace
}  // namespace varpred
