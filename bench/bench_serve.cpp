// Saturation load harness for the varpredd serving path.
//
//   bench_serve [--port=N] [--conns=N] [--qps=F] [--duration-s=F]
//               [--probes=N] [--samples=N] [--queue-max=N]
//               [--fast] [--runs=N] [--repeat=N] [--obs=...] [--obs-out=...]
//
// Drives the daemon through three load points and reports tail latency,
// throughput, error rate, and the admission-wait vs compute breakdown at
// each:
//
//   closed_c1  — closed loop, 1 connection: unloaded baseline latency.
//   closed_cN  — closed loop, --conns connections: throughput at natural
//                concurrency; its achieved QPS estimates saturation.
//   open_sat   — open loop at --qps (default 1.25x the closed_cN rate, i.e.
//                past saturation): arrivals are scheduled, latency is
//                measured from the *scheduled* arrival time, so queueing
//                delay from falling behind is charged to the server
//                (coordinated-omission aware), and admission rejections
//                surface as the error rate.
//
// Without --port the harness is self-serving: it trains an amd -> intel
// transfer model in-process, starts a Server on an ephemeral loopback port,
// and drives it over real TCP — so `ctest` and CI can run the full path
// with no process orchestration. With --port it drives an already-running
// varpredd instead.
//
// Emits BENCH_serve.json with seven series, one sample per repetition, all
// in seconds and lower-is-better, so bench_diff gates them against
// bench/baselines/serve.jsonl like any timed stage:
//   closed_c1.p50_s, closed_c1.p99_s, closed_cN.p50_s, closed_cN.p99_s,
//   open_sat.p50_s, open_sat.p99_s   request latency quantiles
//   closed_cN.s_per_request          1 / achieved QPS
// Latency counts answered requests only: successes and admission
// rejections. Any other failed predict makes the run exit 1. Every numeric
// flag goes through the strict parse helpers — malformed values abort
// instead of parsing as zero.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/parse.hpp"
#include "obs/hdr.hpp"
#include "serve/client.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace {

using varpred::obs::HdrHistogram;
using varpred::obs::HdrSnapshot;
using varpred::serve::Client;
using varpred::serve::ErrorCode;
using varpred::serve::PredictRequest;

struct ServeArgs {
  varpred::bench::HarnessArgs harness;
  std::optional<std::uint16_t> port;  ///< unset = self-serve
  std::size_t conns = 4;
  double qps = 0.0;  ///< open-loop target; 0 derives from closed_cN
  double duration_s = 2.0;
  std::size_t probes = 10;
  std::uint32_t n_samples = 100;
  std::size_t queue_max = 64;
};

ServeArgs parse_args(int argc, char** argv) {
  using varpred::require_finite_double_flag;
  using varpred::require_u64_flag;
  ServeArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (args.harness.consume(arg)) continue;
    try {
      if (std::strncmp(arg, "--port=", 7) == 0) {
        const auto port = require_u64_flag("--port", arg + 7);
        if (port == 0 || port > 65535) {
          throw std::invalid_argument("--port must be in [1, 65535]");
        }
        args.port = static_cast<std::uint16_t>(port);
      } else if (std::strncmp(arg, "--conns=", 8) == 0) {
        args.conns = static_cast<std::size_t>(
            require_u64_flag("--conns", arg + 8));
        if (args.conns == 0) {
          throw std::invalid_argument("--conns must be positive");
        }
      } else if (std::strncmp(arg, "--qps=", 6) == 0) {
        args.qps = require_finite_double_flag("--qps", arg + 6);
        if (args.qps <= 0.0) {
          throw std::invalid_argument("--qps must be positive");
        }
      } else if (std::strncmp(arg, "--duration-s=", 13) == 0) {
        args.duration_s =
            require_finite_double_flag("--duration-s", arg + 13);
        if (args.duration_s <= 0.0) {
          throw std::invalid_argument("--duration-s must be positive");
        }
      } else if (std::strncmp(arg, "--probes=", 9) == 0) {
        args.probes = static_cast<std::size_t>(
            require_u64_flag("--probes", arg + 9));
      } else if (std::strncmp(arg, "--samples=", 10) == 0) {
        const auto samples = require_u64_flag("--samples", arg + 10);
        if (samples == 0 ||
            samples > std::numeric_limits<std::uint32_t>::max()) {
          throw std::invalid_argument("--samples must be in [1, 4294967295]");
        }
        args.n_samples = static_cast<std::uint32_t>(samples);
      } else if (std::strncmp(arg, "--queue-max=", 12) == 0) {
        args.queue_max = static_cast<std::size_t>(
            require_u64_flag("--queue-max", arg + 12));
        if (args.queue_max == 0) {
          throw std::invalid_argument("--queue-max must be positive");
        }
      } else {
        throw std::invalid_argument(std::string("unknown flag: ") + arg);
      }
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bench_serve: %s\n", e.what());
      std::exit(2);
    }
  }
  return args;
}

struct LoadPoint {
  std::string label;
  std::string mode;  // "closed" | "open"
  std::size_t connections = 0;
  double target_qps = 0.0;
  double duration_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t errors = 0;  ///< non-overload failures
  double achieved_qps = 0.0;
  double error_rate = 0.0;
  HdrSnapshot latency_ns, queue_ns, compute_ns;
};

/// Per-sender tallies, merged after the threads join.
struct SenderStats {
  HdrHistogram latency{3};
  HdrHistogram queue{3};
  HdrHistogram compute{3};
  std::uint64_t requests = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t errors = 0;
};

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void record_outcome(SenderStats& stats, const varpred::serve::PredictOutcome&
                                            outcome,
                    std::uint64_t latency) {
  ++stats.requests;
  if (outcome.ok) {
    stats.latency.record(latency);
    stats.queue.record(outcome.response.queue_ns);
    stats.compute.record(outcome.response.compute_ns);
  } else if (outcome.code == ErrorCode::kOverloaded) {
    ++stats.overloaded;
    stats.latency.record(latency);
  } else {
    ++stats.errors;
  }
}

/// Drives one load point. `target_qps` <= 0 runs closed-loop (every sender
/// keeps one request in flight); positive runs open-loop at that aggregate
/// rate with latencies measured from the scheduled arrival times.
LoadPoint drive(std::uint16_t port, const PredictRequest& request,
                const std::string& label, std::size_t conns,
                double target_qps, double duration_s) {
  std::vector<SenderStats> stats(conns);
  std::vector<std::thread> senders;
  senders.reserve(conns);
  const std::uint64_t t0 = steady_ns();
  const std::uint64_t deadline =
      t0 + static_cast<std::uint64_t>(duration_s * 1e9);
  for (std::size_t j = 0; j < conns; ++j) {
    senders.emplace_back([&, j] {
      Client client(port);
      SenderStats& mine = stats[j];
      // Trace ids are unique across senders and nonzero, so every request
      // is followable in the server's Chrome-trace sink.
      std::uint64_t next_trace = (static_cast<std::uint64_t>(j) << 40) | 1;
      if (target_qps <= 0.0) {
        while (steady_ns() < deadline) {
          const std::uint64_t sent = steady_ns();
          const auto outcome = client.predict(request, next_trace++);
          record_outcome(mine, outcome, steady_ns() - sent);
        }
        return;
      }
      // Open loop: this sender owns arrivals j, j + conns, j + 2*conns, ...
      // of the aggregate schedule. One request stays in flight per
      // connection; when the sender falls behind schedule, the next send
      // happens immediately but its latency still counts from the
      // scheduled arrival — the wait is the server's debt, not the
      // generator's.
      const double period_ns = 1e9 * static_cast<double>(conns) / target_qps;
      const double offset_ns =
          period_ns * static_cast<double>(j) / static_cast<double>(conns);
      for (std::uint64_t i = 0;; ++i) {
        const std::uint64_t scheduled =
            t0 + static_cast<std::uint64_t>(offset_ns +
                                            period_ns * static_cast<double>(i));
        if (scheduled >= deadline) break;
        const std::uint64_t now = steady_ns();
        if (scheduled > now) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(scheduled - now));
        }
        const auto outcome = client.predict(request, next_trace++);
        const std::uint64_t done = steady_ns();
        record_outcome(mine, outcome,
                       done > scheduled ? done - scheduled : 0);
      }
    });
  }
  for (auto& t : senders) t.join();
  const double elapsed = static_cast<double>(steady_ns() - t0) * 1e-9;

  LoadPoint point;
  point.label = label;
  point.mode = target_qps <= 0.0 ? "closed" : "open";
  point.connections = conns;
  point.target_qps = std::max(target_qps, 0.0);
  point.duration_s = elapsed;
  HdrSnapshot latency = stats[0].latency.snapshot();
  HdrSnapshot queue = stats[0].queue.snapshot();
  HdrSnapshot compute = stats[0].compute.snapshot();
  for (std::size_t j = 0; j < conns; ++j) {
    point.requests += stats[j].requests;
    point.overloaded += stats[j].overloaded;
    point.errors += stats[j].errors;
    if (j > 0) {
      latency.merge(stats[j].latency.snapshot());
      queue.merge(stats[j].queue.snapshot());
      compute.merge(stats[j].compute.snapshot());
    }
  }
  point.achieved_qps =
      elapsed > 0.0 ? static_cast<double>(point.requests) / elapsed : 0.0;
  point.error_rate =
      point.requests == 0
          ? 0.0
          : static_cast<double>(point.overloaded + point.errors) /
                static_cast<double>(point.requests);
  point.latency_ns = std::move(latency);
  point.queue_ns = std::move(queue);
  point.compute_ns = std::move(compute);
  return point;
}

/// Quantile of an ns sketch in milliseconds / seconds.
double ms(const HdrSnapshot& snap, double q) {
  return static_cast<double>(snap.quantile(q)) * 1e-6;
}
double seconds(const HdrSnapshot& snap, double q) {
  return static_cast<double>(snap.quantile(q)) * 1e-9;
}

void print_point(const LoadPoint& p) {
  std::printf(
      "%-10s %-6s conns=%zu qps=%8.1f (target %8.1f) err=%5.1f%% "
      "p50=%7.2fms p99=%7.2fms p999=%7.2fms queue.p99=%7.2fms "
      "compute.p99=%7.2fms\n",
      p.label.c_str(), p.mode.c_str(), p.connections, p.achieved_qps,
      p.target_qps, p.error_rate * 100.0, ms(p.latency_ns, 0.50),
      ms(p.latency_ns, 0.99), ms(p.latency_ns, 0.999), ms(p.queue_ns, 0.99),
      ms(p.compute_ns, 0.99));
}

/// Drives one load point, prints it, records its latency series, and adds
/// its non-overload failures to `errors`.
LoadPoint run_point(varpred::bench::Run& run, std::uint64_t& errors,
                    std::uint16_t port, const PredictRequest& request,
                    const std::string& label, std::size_t conns,
                    double target_qps, double duration_s) {
  LoadPoint p = drive(port, request, label, conns, target_qps, duration_s);
  print_point(p);
  errors += p.errors;
  run.record(label + ".p50_s", seconds(p.latency_ns, 0.50));
  run.record(label + ".p99_s", seconds(p.latency_ns, 0.99));
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace varpred;
  const ServeArgs args = parse_args(argc, argv);

  // Self-serve setup (no --port): train a small amd -> intel transfer model
  // and run the server in-process on an ephemeral loopback port. The
  // registry and server must outlive every load point.
  serve::ModelRegistry registry;
  std::unique_ptr<serve::Server> own_server;
  std::string model_name;
  std::string source_system;
  std::uint16_t port = 0;

  if (args.port.has_value()) {
    port = *args.port;
    Client probe(port);
    const auto listing = probe.list();
    if (listing.entries.empty()) {
      std::fprintf(stderr, "bench_serve: daemon at %u serves no models\n",
                   static_cast<unsigned>(port));
      return 1;
    }
    model_name = listing.entries.front().model;
    source_system = listing.entries.front().source_system;
  } else {
    const std::size_t corpus_runs = std::min<std::size_t>(
        args.harness.fast ? 200 : 400, args.harness.runs);
    const auto source =
        measure::build_corpus(measure::SystemModel::amd(), corpus_runs, 7);
    const auto target =
        measure::build_corpus(measure::SystemModel::intel(), corpus_runs, 7);
    core::CrossSystemPredictor predictor;
    predictor.train_all(source, target);
    model_name = "amd_intel";
    registry.publish(model_name, std::move(predictor));
    source_system = "amd";

    serve::ServerConfig config;
    config.port = 0;
    config.queue_max = args.queue_max;
    own_server = std::make_unique<serve::Server>(registry, config);
    port = own_server->port();
    std::printf("[bench] self-serve daemon on 127.0.0.1:%u\n",
                static_cast<unsigned>(port));
  }

  // One fixed request drives every load point: probe runs simulated on the
  // model's source system (seed disjoint from the training corpus).
  const auto& probe_system = measure::SystemModel::by_name(
      source_system.empty() ? "amd" : source_system);
  const auto probe_runs = measure::measure_benchmark(
      0, probe_system, std::max<std::size_t>(args.probes, 2), 12345);
  PredictRequest request;
  request.model = model_name;
  request.version = 0;  // always the latest published version
  request.seed = 99;
  request.n_samples = args.n_samples;
  request.benchmark = 0;
  request.n_metrics = static_cast<std::uint32_t>(probe_runs.counters.cols());
  request.runtimes = probe_runs.runtimes;
  request.counters.reserve(probe_runs.run_count() * request.n_metrics);
  for (std::size_t r = 0; r < probe_runs.run_count(); ++r) {
    for (std::size_t m = 0; m < request.n_metrics; ++m) {
      request.counters.push_back(probe_runs.counters.at(r, m));
    }
  }

  std::uint64_t errors = 0;
  const int rc = bench::run_repeated(
      "serve", args.harness, [&](bench::Run& run) {
        run_point(run, errors, port, request, "closed_c1", 1, 0.0,
                  args.duration_s);
        const LoadPoint closed = run_point(run, errors, port, request,
                                           "closed_cN", args.conns, 0.0,
                                           args.duration_s);
        run.record("closed_cN.s_per_request",
                   closed.duration_s /
                       static_cast<double>(std::max<std::uint64_t>(
                           closed.requests, 1)));

        // Past saturation: schedule arrivals 25% faster than the closed
        // loop could complete them (or at the explicit --qps), so the
        // backlog is charged to latency. Each connection keeps one predict
        // in flight, so the admission cap rejects only when --conns
        // exceeds --queue-max.
        const double target =
            args.qps > 0.0 ? args.qps : closed.achieved_qps * 1.25;
        run_point(run, errors, port, request, "open_sat", args.conns, target,
                  args.duration_s);
      });

  if (own_server != nullptr) own_server->stop();
  if (errors > 0) {
    std::fprintf(stderr,
                 "bench_serve: %llu predicts failed with a non-overload "
                 "error\n",
                 static_cast<unsigned long long>(errors));
    return 1;
  }
  return rc;
}
