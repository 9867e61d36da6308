// varpredd's TCP front end.
//
// One accept thread plus one thread per connection. A connection handles
// one request at a time (read frame -> handle -> write response), so a
// client gets responses in request order; concurrency comes from many
// connections. A predict request is admitted and computed on the
// connection thread that decoded it (Batcher::admit), behind the
// `queue_max` cap on predicts in flight.
//
// RED metrics per endpoint (rate / errors / duration): counters
// serve.<endpoint>.requests and serve.<endpoint>.errors plus HDR histogram
// serve.<endpoint>.duration_ns; predict additionally records the same
// triple under serve.predict.<model>.v<version>.* so a hot swap shows up
// as a new version series mid-scrape. Gauge serve.connections tracks open
// sockets.
//
// Trace propagation: the client's trace id is set (TraceIdScope) on the
// connection thread for the whole request, so its "serve.request" span and
// the "serve.compute" span nested inside it share the id in the
// Chrome-trace sink.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>

#include "serve/batcher.hpp"
#include "serve/registry.hpp"

namespace varpred::serve {

struct ServerConfig {
  std::uint16_t port = 0;  ///< 0 binds an ephemeral port (see Server::port)
  std::size_t queue_max = 256;  ///< most predicts in flight at once
};

class Server {
 public:
  /// Binds 127.0.0.1:<port>, starts listening and accepting. Throws
  /// std::invalid_argument when the port cannot be bound. The registry must
  /// outlive the server.
  Server(ModelRegistry& registry, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Actual bound port (useful with config.port = 0).
  std::uint16_t port() const { return port_; }

  /// Stops accepting, shuts down open connections, and joins every thread.
  /// Idempotent; the destructor calls it.
  void stop();

  /// Requests served since start (all endpoints, including errors).
  std::uint64_t requests_handled() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void accept_loop();
  void handle_connection(int fd);
  /// Dispatches one decoded frame; returns false when the connection should
  /// close (protocol violation).
  bool handle_frame(int fd, const Frame& frame);
  void handle_predict(int fd, const Frame& frame);

  ModelRegistry& registry_;
  ServerConfig config_;
  Batcher batcher_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<std::uint64_t> requests_{0};

  std::mutex conn_mu_;
  std::condition_variable conn_cv_;
  std::set<int> conn_fds_;      // open connection sockets, for shutdown
  std::size_t conn_active_ = 0;  // detached connection threads still running
  bool stopping_ = false;
};

}  // namespace varpred::serve
