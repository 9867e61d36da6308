// varpredd: long-running prediction server.
//
//   varpredd --model=NAME=PATH [--model=...] [--port=N]
//            [--queue-max=N]
//            [--obs=off|summary|trace] [--max-seconds=N] [--trace-out=PATH]
//
// Loads one or more checksummed model files (varpred train-x writes them)
// into the versioned registry and serves the binary protocol
// (src/serve/protocol.hpp) on 127.0.0.1:<port> until SIGINT/SIGTERM (or
// --max-seconds, for bounded CI runs). Clients can hot-swap new model
// versions mid-load via the swap message; in-flight requests finish on the
// version they were admitted with.
//
// Observability defaults to summary (RED metrics live in the registry and
// the stats message returns them as Prometheus text); --obs=trace +
// --trace-out= writes the Chrome-trace span buffer (request trace ids
// included) at shutdown. Every numeric flag goes through the strict parse helpers — a
// malformed value aborts startup instead of silently becoming zero.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parse.hpp"
#include "obs/obs.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

void usage() {
  std::fprintf(
      stderr,
      "usage: varpredd --model=NAME=PATH [--model=...] [--port=N]\n"
      "                [--queue-max=N]\n"
      "                [--obs=off|summary|trace] [--max-seconds=N]\n"
      "                [--trace-out=PATH]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using varpred::require_u64_flag;

  varpred::serve::ServerConfig config;
  config.port = 7077;
  std::vector<std::pair<std::string, std::string>> models;
  std::uint64_t max_seconds = 0;
  std::string trace_out;
  varpred::obs::Mode mode = varpred::obs::Mode::kSummary;

  try {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--model=", 8) == 0) {
        const std::string spec = arg + 8;
        const auto eq = spec.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
          throw std::invalid_argument(
              "--model expects NAME=PATH, got: " + spec);
        }
        models.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
      } else if (std::strncmp(arg, "--port=", 7) == 0) {
        const auto port = require_u64_flag("--port", arg + 7);
        if (port > 65535) {
          throw std::invalid_argument("--port must be <= 65535");
        }
        config.port = static_cast<std::uint16_t>(port);
      } else if (std::strncmp(arg, "--queue-max=", 12) == 0) {
        config.queue_max =
            static_cast<std::size_t>(require_u64_flag("--queue-max",
                                                      arg + 12));
        if (config.queue_max == 0) {
          throw std::invalid_argument("--queue-max must be positive");
        }
      } else if (std::strncmp(arg, "--max-seconds=", 14) == 0) {
        max_seconds = require_u64_flag("--max-seconds", arg + 14);
      } else if (std::strncmp(arg, "--obs=", 6) == 0) {
        if (!varpred::obs::parse_mode(arg + 6, mode)) {
          throw std::invalid_argument(std::string("bad --obs value: ") +
                                      (arg + 6));
        }
      } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
        trace_out = arg + 12;
      } else {
        throw std::invalid_argument(std::string("unknown flag: ") + arg);
      }
    }
    if (models.empty()) {
      throw std::invalid_argument("at least one --model=NAME=PATH required");
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "varpredd: %s\n", e.what());
    usage();
    return 2;
  }

  varpred::obs::set_mode(mode);

  varpred::serve::ModelRegistry registry;
  for (const auto& [name, path] : models) {
    try {
      const auto version = registry.publish_file(name, path);
      const auto model = registry.get(name, version);
      std::printf("loaded %s v%llu from %s (source system: %s)\n",
                  name.c_str(), static_cast<unsigned long long>(version),
                  path.c_str(),
                  model->source_system.empty() ? "?"
                                               : model->source_system.c_str());
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "varpredd: cannot load %s: %s\n", path.c_str(),
                   e.what());
      return 1;
    }
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);  // peer-closed sockets fail the write call

  try {
    varpred::serve::Server server(registry, config);
    // The port line is the readiness signal scripts wait for.
    std::printf("varpredd listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(max_seconds);
    while (!g_stop.load()) {
      if (max_seconds != 0 && std::chrono::steady_clock::now() >= deadline) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.stop();
    std::printf("varpredd: served %llu requests\n",
                static_cast<unsigned long long>(server.requests_handled()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "varpredd: %s\n", e.what());
    return 1;
  }

  if (!trace_out.empty() && mode == varpred::obs::Mode::kTrace) {
    std::ofstream out(trace_out);
    varpred::obs::write_trace_json(out);
    std::printf("wrote %s\n", trace_out.c_str());
  }
  return 0;
}
