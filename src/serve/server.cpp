#include "serve/server.hpp"

#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/check.hpp"
#include "obs/obs.hpp"

namespace varpred::serve {

namespace {

/// Records one RED observation (rate / errors / duration) under `base`.
void record_red(const std::string& base, bool error, std::uint64_t dur_ns) {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::global();
  reg.counter(base + ".requests").add(1);
  if (error) reg.counter(base + ".errors").add(1);
  reg.hdr(base + ".duration_ns").record(dur_ns);
}

void send_error(int fd, std::uint64_t trace_id, ErrorCode code,
                std::string message) {
  ErrorResponse err;
  err.code = code;
  err.message = std::move(message);
  write_frame(fd, MsgType::kError, trace_id, err.body());
}

}  // namespace

Server::Server(ModelRegistry& registry, ServerConfig config)
    : registry_(registry),
      config_(config),
      batcher_(Batcher::Config{config_.queue_max, {}}) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  VARPRED_CHECK_ARG(listen_fd_ >= 0, "cannot create listen socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    VARPRED_CHECK_ARG(false, "cannot bind 127.0.0.1:" +
                                 std::to_string(config_.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_) return;
    stopping_ = true;
    // Unblock every connection thread's read_frame; the threads close and
    // deregister their own fds on exit.
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  // Shutting the listener down unblocks accept(); the fd is closed and
  // cleared only after the accept thread, which reads it, has been joined.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::unique_lock<std::mutex> lock(conn_mu_);
    conn_cv_.wait(lock, [this] { return conn_active_ == 0; });
  }
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down by stop()
    }
    // Every frame goes out in one write, so Nagle would only hold pipelined
    // replies back until the client's next ACK.
    const int one = 1;
    if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
      ::close(fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      conn_fds_.insert(fd);
      ++conn_active_;
      if (obs::enabled()) {
        obs::Registry::global()
            .gauge("serve.connections")
            .set(static_cast<double>(conn_fds_.size()));
      }
    }
    std::thread([this, fd] { handle_connection(fd); }).detach();
  }
}

void Server::handle_connection(int fd) {
  try {
    for (;;) {
      const auto frame = read_frame(fd);
      if (!frame.has_value()) break;  // client closed cleanly
      if (!handle_frame(fd, *frame)) break;
    }
  } catch (const std::exception&) {
    // Malformed framing: the byte stream can no longer be trusted, so the
    // connection closes (per-body decode errors are answered in-band).
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  ::close(fd);
  conn_fds_.erase(fd);
  --conn_active_;
  if (obs::enabled()) {
    obs::Registry::global()
        .gauge("serve.connections")
        .set(static_cast<double>(conn_fds_.size()));
  }
  conn_cv_.notify_all();
}

bool Server::handle_frame(int fd, const Frame& frame) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  obs::TraceIdScope trace(frame.trace_id);
  obs::Span span("serve.request");
  const std::uint64_t begin = obs::now_ns();
  try {
    switch (frame.type) {
      case MsgType::kPing: {
        const bool ok = write_frame(fd, MsgType::kPingOk, frame.trace_id, "");
        record_red("serve.ping", false, obs::now_ns() - begin);
        return ok;
      }
      case MsgType::kPredict:
        handle_predict(fd, frame);
        return true;
      case MsgType::kSwap: {
        const SwapRequest req = SwapRequest::parse(frame.body);
        SwapResponse resp;
        bool error = false;
        try {
          resp.version = registry_.publish_file(req.model, req.path);
        } catch (const std::invalid_argument& e) {
          error = true;
          send_error(fd, frame.trace_id, ErrorCode::kBadRequest, e.what());
        }
        if (!error) {
          write_frame(fd, MsgType::kSwapOk, frame.trace_id, resp.body());
        }
        record_red("serve.swap", error, obs::now_ns() - begin);
        return true;
      }
      case MsgType::kList: {
        ListResponse resp;
        for (const auto& model : registry_.list()) {
          resp.entries.push_back({model->name, model->version,
                                  model->source_system, model->source});
        }
        write_frame(fd, MsgType::kListOk, frame.trace_id, resp.body());
        record_red("serve.list", false, obs::now_ns() - begin);
        return true;
      }
      case MsgType::kStats: {
        StatsResponse resp;
        resp.prometheus =
            obs::prometheus_text(obs::Registry::global().snapshot());
        write_frame(fd, MsgType::kStatsOk, frame.trace_id, resp.body());
        record_red("serve.stats", false, obs::now_ns() - begin);
        return true;
      }
      default:
        send_error(fd, frame.trace_id, ErrorCode::kMalformed,
                   std::string("unexpected message type: ") +
                       to_string(frame.type));
        return false;
    }
  } catch (const std::invalid_argument& e) {
    // Body decode failure: the frame boundary is intact (length-prefixed),
    // so answer in-band and keep the connection.
    send_error(fd, frame.trace_id, ErrorCode::kMalformed, e.what());
    record_red("serve.malformed", true, obs::now_ns() - begin);
    return true;
  }
}

void Server::handle_predict(int fd, const Frame& frame) {
  const std::uint64_t begin = obs::now_ns();
  PredictRequest request = PredictRequest::parse(frame.body);

  // Resolve the model before admission: a swap that publishes a newer
  // version while this request computes does not change what it serves.
  auto model = registry_.get(request.model, request.version);
  if (model == nullptr) {
    send_error(fd, frame.trace_id, ErrorCode::kUnknownModel,
               "unknown model/version: " + request.model);
    record_red("serve.predict", true, obs::now_ns() - begin);
    return;
  }
  const std::string versioned =
      "serve.predict." + model->name + ".v" + std::to_string(model->version);

  Batcher::Item item;
  item.request = std::move(request);
  item.model = model;
  item.trace_id = frame.trace_id;
  const std::optional<ServeResult> result = batcher_.admit(item);
  if (!result.has_value()) {
    send_error(fd, frame.trace_id, ErrorCode::kOverloaded,
               "too many predicts in flight");
    const std::uint64_t dur = obs::now_ns() - begin;
    record_red("serve.predict", true, dur);
    record_red(versioned, true, dur);
    return;
  }
  if (result->ok) {
    write_frame(fd, MsgType::kPredictOk, frame.trace_id,
                result->response.body());
  } else {
    send_error(fd, frame.trace_id, result->code, result->message);
  }
  const std::uint64_t dur = obs::now_ns() - begin;
  record_red("serve.predict", !result->ok, dur);
  record_red(versioned, !result->ok, dur);
}

}  // namespace varpred::serve
