// serve_predict: varpredd predict traffic against an in-process
// serve::Server with the shipped ServerConfig defaults (queue 256, batch 16,
// batch wait 500 us), serving the default amd -> intel PearsonRnd+kNN
// transfer model. Every request is the same: 10 probe runs, 100 samples.
//
// Load: closed-loop bursts on one connection, then an open-loop ladder of
// fixed rates on two connections. In the open loop each connection has a
// sender that writes requests on schedule without waiting and a reader that
// matches the replies, which arrive in request order; latency counts from
// the scheduled send, so a stall is charged to every request it delays.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/crosssystem.hpp"
#include "measure/corpus.hpp"
#include "serve/batcher.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using namespace varpred;

// As in the repository's harnesses the corpora and the probe runs are
// seed-stable; --seed is the request's reconstruction seed.
constexpr std::uint64_t kCorpusSeed = 7;
constexpr std::size_t kCorpusRuns = 200;
constexpr std::size_t kProbeRuns = 10;
constexpr std::uint32_t kSamples = 100;
constexpr std::size_t kBurst = 100;          // requests per closed-loop burst
constexpr std::size_t kConnections = 2;      // open-loop connections
constexpr double kRates[] = {300, 600, 1000, 1400, 1800};  // requests/s
constexpr std::size_t kMiddle = 2;           // index of the middle rate
constexpr double kP99LimitMs = 2.0;          // latency limit for max_qps
constexpr double kLateLimitUs = 500.0;       // generator lateness bound (p99)
const char* const kModel = "amd_intel";

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

std::uint64_t digest(const std::vector<double>& samples) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the sample bytes
  const auto* p = reinterpret_cast<const unsigned char*>(samples.data());
  for (std::size_t i = 0; i < samples.size() * sizeof(double); ++i) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  return h;
}

struct Daemon {
  serve::ModelRegistry registry;
  std::unique_ptr<serve::Server> server;  // destroyed before the registry
};

struct ServeState {
  std::unique_ptr<Daemon> daemon;
  serve::PredictRequest request;
  std::string body;        // encoded request body
  std::uint64_t expected = 0;  // digest of default_compute on the request
};

serve::Batcher::Item item_for(const ServeState& s) {
  serve::Batcher::Item item;
  item.request = s.request;
  item.model = s.daemon->registry.get(kModel);
  return item;
}

void setup(ServeState& s, const Options& opts, LayerClock* clock) {
  const auto source = timed(clock, Layer::kSimulate, [&] {
    return measure::build_corpus(measure::SystemModel::amd(), kCorpusRuns,
                                 kCorpusSeed);
  });
  const auto target = timed(clock, Layer::kSimulate, [&] {
    return measure::build_corpus(measure::SystemModel::intel(), kCorpusRuns,
                                 kCorpusSeed);
  });
  core::CrossSystemPredictor predictor;
  timed(clock, Layer::kFit, [&] { predictor.train_all(source, target); });
  if (clock != nullptr) {
    clock->runs += 2 * kCorpusRuns * source.benchmarks.size();
    ++clock->fits;
  }
  s.daemon = std::make_unique<Daemon>();
  s.daemon->registry.publish(kModel, std::move(predictor));
  s.daemon->server =
      std::make_unique<serve::Server>(s.daemon->registry, serve::ServerConfig{});

  const auto probe = measure::measure_benchmark(
      0, measure::SystemModel::amd(), kProbeRuns,
      seed_combine(kCorpusSeed, stable_hash("serve-probe")));
  serve::PredictRequest& r = s.request;
  r.model = kModel;
  r.seed = opts.seed;
  r.n_samples = kSamples;
  r.benchmark = static_cast<std::uint32_t>(probe.benchmark);
  r.n_metrics = static_cast<std::uint32_t>(probe.counters.cols());
  r.runtimes = probe.runtimes;
  for (std::size_t i = 0; i < probe.run_count(); ++i) {
    for (std::size_t m = 0; m < r.n_metrics; ++m) {
      r.counters.push_back(probe.counters.at(i, m));
    }
  }
  s.body = r.body();
  s.expected = digest(serve::default_compute(item_for(s)));
}

int connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    throw std::runtime_error("connect() failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + done, bytes.size() - done, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

// What one reply says, and whether it is right.
struct Reply {
  bool ok = false;
  double queue_us = 0.0;
  double compute_us = 0.0;
};

Reply check_reply(const serve::Frame& frame, std::uint64_t expected) {
  Reply reply;
  if (frame.type != serve::MsgType::kPredictOk) return reply;
  serve::PredictResponse response;
  try {
    response = serve::PredictResponse::parse(frame.body);
  } catch (const std::invalid_argument&) {
    return reply;  // an undecodable reply is a failed request
  }
  reply.ok = digest(response.samples) == expected;
  reply.queue_us = static_cast<double>(response.queue_ns) * 1e-3;
  reply.compute_us = static_cast<double>(response.compute_ns) * 1e-3;
  return reply;
}

// Latency samples of one load segment (all in microseconds).
struct Samples {
  std::vector<double> latency, queue, compute, wire, late;
  std::size_t sent = 0, ok = 0, failed = 0;

  void add(const Samples& o) {
    for (auto [dst, src] : {std::pair{&latency, &o.latency},
                            {&queue, &o.queue}, {&compute, &o.compute},
                            {&wire, &o.wire}, {&late, &o.late}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    sent += o.sent;
    ok += o.ok;
    failed += o.failed;
  }
};

// One closed-loop burst of kBurst requests on `client`'s connection.
Samples closed_burst(serve::Client& client, const ServeState& s,
                     Result& result) {
  Samples out;
  for (std::size_t i = 0; i < kBurst; ++i) {
    const std::uint64_t t0 = now_ns();
    const auto outcome = client.predict(s.request);
    const double latency = static_cast<double>(now_ns() - t0) * 1e-3;
    ++out.sent;
    const bool ok =
        outcome.ok && digest(outcome.response.samples) == s.expected;
    result.op(ok);
    ok ? ++out.ok : ++out.failed;
    out.latency.push_back(latency);
    if (outcome.ok) {
      const double q = static_cast<double>(outcome.response.queue_ns) * 1e-3;
      const double c = static_cast<double>(outcome.response.compute_ns) * 1e-3;
      out.queue.push_back(q);
      out.compute.push_back(c);
      out.wire.push_back(latency - q - c);
    }
  }
  return out;
}

struct Point {
  double rate = 0.0;
  Samples samples;
  long backlog_mid = 0;  // requests in flight halfway through the schedule
  long backlog_end = 0;  // ... and when the last request was sent
  bool valid = false;    // generator p99 lateness within kLateLimitUs
  bool growing = false;  // backlog grew over the second half
  std::vector<double> window_p99;  // latency p99 of each 1-second window
};

// One open-loop rate point on kConnections connections.
Point open_point(const ServeState& s, double rate, double seconds,
                 Result& result) {
  Point point;
  point.rate = rate;
  const std::size_t per_conn = std::max<std::size_t>(
      1, static_cast<std::size_t>(rate * seconds / kConnections));
  const double period_ns = 1e9 * kConnections / rate;
  const std::string frame =
      serve::encode_frame(serve::MsgType::kPredict, 0, s.body);
  std::vector<Samples> per(kConnections);
  std::atomic<long> backlog_mid{0}, backlog_end{0};
  std::vector<std::thread> threads;
  std::vector<int> fds;
  for (std::size_t j = 0; j < kConnections; ++j) {
    fds.push_back(connect_local(s.daemon->server->port()));
  }
  const std::uint64_t t0 = now_ns() + 2'000'000;  // first send in 2 ms
  const auto scheduled = [&](std::size_t j, std::size_t i) {
    return t0 + static_cast<std::uint64_t>(
                    period_ns * (static_cast<double>(i) +
                                 static_cast<double>(j) / kConnections));
  };
  std::vector<std::atomic<std::size_t>> received(kConnections);
  for (std::size_t j = 0; j < kConnections; ++j) {
    threads.emplace_back([&, j] {  // sender
      Samples& mine = per[j];
      for (std::size_t i = 0; i < per_conn; ++i) {
        const std::uint64_t due = scheduled(j, i);
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(due)));
        const std::uint64_t now = now_ns();
        mine.late.push_back(now > due ? static_cast<double>(now - due) * 1e-3
                                      : 0.0);
        if (!send_all(fds[j], frame)) {
          ::shutdown(fds[j], SHUT_RDWR);
          return;
        }
        ++mine.sent;
        const long in_flight = static_cast<long>(
            i + 1 - received[j].load(std::memory_order_relaxed));
        if (i + 1 == per_conn / 2) backlog_mid += in_flight;
        if (i + 1 == per_conn) backlog_end += in_flight;
      }
    });
    threads.emplace_back([&, j] {  // reader
      Samples& mine = per[j];
      std::vector<double> latency, queue, compute;
      for (std::size_t i = 0; i < per_conn; ++i) {
        std::optional<serve::Frame> reply;
        // The server's sockets keep Nagle on, so with replies pipelined a
        // delayed client ACK would hold each reply until the next request
        // carries the ACK. Quick ACKs measure the server, not the ACK timer;
        // the kernel drops the flag, so it is re-armed around every read
        // (arming it also sends an ACK that is still pending).
        const int one = 1;
        ::setsockopt(fds[j], IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
        try {
          reply = serve::read_frame(fds[j]);
        } catch (const std::exception&) {
        }
        ::setsockopt(fds[j], IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
        if (!reply.has_value()) break;
        const std::uint64_t now = now_ns();
        received[j].fetch_add(1, std::memory_order_relaxed);
        const Reply r = check_reply(*reply, s.expected);
        latency.push_back(static_cast<double>(now - scheduled(j, i)) * 1e-3);
        if (r.ok) {
          queue.push_back(r.queue_us);
          compute.push_back(r.compute_us);
        }
      }
      mine.latency = std::move(latency);
      mine.queue = std::move(queue);
      mine.compute = std::move(compute);
    });
  }
  for (auto& t : threads) t.join();
  for (const int fd : fds) ::close(fd);
  std::vector<std::vector<double>> windows;
  for (std::size_t j = 0; j < kConnections; ++j) {
    for (std::size_t i = 0; i < per[j].latency.size(); ++i) {
      const auto w = static_cast<std::size_t>((scheduled(j, i) - t0) / 1'000'000'000);
      if (windows.size() <= w) windows.resize(w + 1);
      windows[w].push_back(per[j].latency[i]);
    }
  }
  for (const auto& w : windows) {
    point.window_p99.push_back(percentile_of(w, 0.99));
  }
  for (std::size_t j = 0; j < kConnections; ++j) {
    Samples& mine = per[j];
    mine.ok = mine.queue.size();
    // Unanswered or wrong replies count as failed requests.
    mine.failed = per_conn - mine.ok;
    for (std::size_t i = 0; i < per_conn; ++i) result.op(i < mine.ok);
    point.samples.add(mine);
  }
  point.backlog_mid = backlog_mid.load();
  point.backlog_end = backlog_end.load();
  point.valid = percentile_of(point.samples.late, 0.99) <= kLateLimitUs;
  point.growing = point.backlog_end > 2 * point.backlog_mid + 8;
  return point;
}

void print_point(const Point& p) {
  const Samples& s = p.samples;
  std::printf(
      "rate %6.0f/s: sent %zu ok %zu failed %zu | latency p50 %.3f p90 %.3f "
      "p99 %.3f ms | generator late p99 %.1f us | backlog mid %ld end %ld | "
      "%s%s\n",
      p.rate, s.sent, s.ok, s.failed, 1e-3 * percentile_of(s.latency, 0.5),
      1e-3 * percentile_of(s.latency, 0.9),
      1e-3 * percentile_of(s.latency, 0.99), percentile_of(s.late, 0.99),
      p.backlog_mid, p.backlog_end, p.valid ? "valid" : "INVALID (late)",
      p.growing ? ", backlog growing" : "");
}

// The load both halves of a run drive: closed-loop bursts for a quarter of
// `budget`, then the open-loop ladder.
struct Load {
  std::vector<double> burst_s;
  Samples closed;
  std::vector<Point> points;
};

Load drive(const ServeState& s, double budget, Result& result) {
  Load load;
  serve::Client client(s.daemon->server->port());
  const auto start = Clock::now();
  while (load.burst_s.size() < 3 || seconds_since(start) < 0.25 * budget) {
    const auto t0 = Clock::now();
    load.closed.add(closed_burst(client, s, result));
    load.burst_s.push_back(seconds_since(t0));
  }
  // The middle rate carries the reported latencies, so it gets the longest
  // leg: 45% of the budget, against 7.5% for each other rate.
  for (std::size_t i = 0; i < std::size(kRates); ++i) {
    const double leg_s = std::max(0.5, (i == kMiddle ? 0.45 : 0.075) * budget);
    load.points.push_back(open_point(s, kRates[i], leg_s, result));
    print_point(load.points.back());
  }
  return load;
}

double max_qps(const Load& load) {
  double best = 0.0;
  for (const Point& p : load.points) {
    if (p.valid && !p.growing && p.samples.failed == 0 &&
        1e-3 * percentile_of(p.samples.latency, 0.99) <= kP99LimitMs) {
      best = std::max(best, p.rate);
    }
  }
  return best;
}

// Calls fn() `reps` times and returns the mean microseconds per call.
template <typename F>
double us_per_call(std::size_t reps, F&& fn) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < reps; ++i) fn();
  return 1e6 * seconds_since(t0) / static_cast<double>(reps);
}

}  // namespace

Result run_serve_predict(const Options& opts) {
  Result result;
  LayerClock setup_clock;
  ServeState state;
  const std::vector<double> setup_s =
      repeated_setup(state, opts.trace ? &setup_clock : nullptr,
                     [&](ServeState& s, LayerClock* clock) {
                       setup(s, opts, clock);
                     });
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(state.expected));
  result.labels.push_back({"digest", hex});

  const double budget = body_seconds(opts);
  const Load load = drive(state, budget, result);
  const double wall_s = median_of(load.burst_s);
  std::printf("closed loop: %zu bursts of %zu, burst p50 %.4f s, request "
              "p50 %.3f ms; open loop p50 %.3f ms at %.0f/s; max qps %.0f\n",
              load.burst_s.size(), kBurst, wall_s,
              1e-3 * percentile_of(load.closed.latency, 0.5),
              1e-3 * percentile_of(load.points[kMiddle].samples.latency, 0.5),
              kRates[kMiddle], max_qps(load));
  if (!opts.trace) {
    result.timings = {{"setup_s", setup_s}, {"wall_s", load.burst_s}};
    return result;
  }

  // Traced half: the same load, then each serving layer's public call timed
  // in-process on the same request.
  const PoolWindow pool;
  const Load traced = drive(state, budget, result);
  pool.report(1, result);
  const Samples& tm = traced.points[kMiddle].samples;
  Samples all = traced.closed;
  all.add(tm);
  result.metric("serve.queue_us.p50", percentile_of(all.queue, 0.5), "us");
  result.metric("serve.queue_us.p99", percentile_of(all.queue, 0.99), "us");
  result.metric("serve.compute_us.p50", percentile_of(all.compute, 0.5), "us");
  result.metric("serve.compute_us.p99", percentile_of(all.compute, 0.99), "us");
  result.metric("serve.wire_us", percentile_of(traced.closed.wire, 0.5), "us");
  result.metric("serve.gen_late_us.p99", percentile_of(tm.late, 0.99), "us");
  // p99 per 1-second window (1000 requests, 10 beyond the p99), median
  // over the windows: one scheduler hiccup moves one window, not the run.
  result.metric("serve.p99_ms", 1e-3 * median_of(traced.points[kMiddle].window_p99),
                "ms");
  result.metric("serve.p50_ms", 1e-3 * percentile_of(tm.latency, 0.5), "ms");
  result.metric("serve.c1_p50_ms",
                1e-3 * percentile_of(traced.closed.latency, 0.5), "ms");
  result.metric("serve.max_qps", max_qps(traced), "1/s");
  result.metric("trace.overhead_s", median_of(traced.burst_s) - wall_s, "s");

  constexpr std::size_t kReps = 200;
  result.metric("serve.decode_us", us_per_call(kReps, [&] {
                  return serve::PredictRequest::parse(state.body);
                }),
                "us");
  // default_compute once more, layer by layer: features, predict,
  // reconstruct, on the probe runs the request carries.
  const serve::Batcher::Item item = item_for(state);
  const auto& predictor = item.model->predictor;
  const serve::PredictRequest& req = item.request;
  measure::BenchmarkRuns runs;
  runs.benchmark = req.benchmark;
  runs.runtimes = req.runtimes;
  runs.counters = ml::Matrix(req.runtimes.size(), req.n_metrics);
  for (std::size_t r = 0; r < req.runtimes.size(); ++r) {
    for (std::size_t m = 0; m < req.n_metrics; ++m) {
      runs.counters.at(r, m) = req.counters[r * req.n_metrics + m];
    }
  }
  LayerClock clock;
  bool same = true;
  for (std::size_t i = 0; i < kReps; ++i) {
    const auto samples = serve::default_compute(item);
    const auto features = clock.time(Layer::kProfile, [&] {
      return predictor.make_features(*predictor.source_system(), runs);
    });
    const auto encoded = clock.time(
        Layer::kPredict, [&] { return predictor.predict_encoded(features); });
    Rng rng(req.seed);
    const auto rebuilt = clock.time(Layer::kReconstruct, [&] {
      return predictor.repr().reconstruct(encoded, req.n_samples, rng);
    });
    clock.samples += rebuilt.size();
    same = same && digest(samples) == state.expected &&
           digest(rebuilt) == state.expected;
    result.op(digest(rebuilt) == state.expected);
    serve::PredictResponse response;
    response.samples = samples;
    clock.time(Layer::kRespond, [&] {
      return serve::encode_frame(serve::MsgType::kPredictOk, 0,
                                 response.body());
    });
  }
  if (!same) std::printf("TRACE MISMATCH: layered compute differs\n");
  report_layers(setup_clock, clock, kReps, result);
  result.metric("serve.respond_us", 1e6 * clock.seconds(Layer::kRespond) / kReps,
                "us");
  return result;
}

}  // namespace perfbench
