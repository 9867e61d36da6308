// Admission control and predict computation for the serving daemon.
//
// A connection thread that decodes a predict request hands it to admit(),
// which computes the prediction on that same thread and returns the
// outcome: a PredictResponse or a typed error. There is no queue and no
// batching; concurrency comes from many connections.
//
// Overload policy: admit() caps the predicts in flight at `queue_max`. When
// the cap is reached it returns std::nullopt at once (the caller answers
// kOverloaded), so latency under saturation stays bounded and the load
// generator can measure the error rate. Each connection waits for its reply
// before sending the next request, so in flight <= open connections.
//
// Observability: the compute runs under a TraceIdScope of the item's trace
// id, so the "serve.compute" span carries the request's id. Metrics:
// serve.admitted / serve.rejected counters and the serve.compute_ns HDR
// histogram.
//
// Naming: the class is still called Batcher and this header batcher.hpp
// although nothing is batched, because the benchmark harness
// (perfbench/serve.cpp) compiles against `serve/batcher.hpp`,
// `Batcher::Item{request, model, trace_id}` and `default_compute`. The
// benchmark sources change only together with their baseline, so the
// rename waits for the next change to the benchmark.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace varpred::serve {

/// Outcome of one served request: a response, or a typed error.
struct ServeResult {
  bool ok = false;
  PredictResponse response;  ///< valid when ok
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  static ServeResult success(PredictResponse response) {
    ServeResult r;
    r.ok = true;
    r.response = std::move(response);
    return r;
  }
  static ServeResult failure(ErrorCode code, std::string message) {
    ServeResult r;
    r.code = code;
    r.message = std::move(message);
    return r;
  }
};

class Batcher {
 public:
  /// One predict request. The model pointer is resolved by the caller before
  /// admission, so a registry hot swap during the compute does not affect it.
  struct Item {
    PredictRequest request;
    std::shared_ptr<const LoadedModel> model;
    std::uint64_t trace_id = 0;
  };

  struct Config {
    /// Most predicts computing at once; admit() rejects beyond it.
    std::size_t queue_max = 256;
    /// Test hook: replaces the per-item predict computation (the default
    /// reconstructs a distribution via the item's model). Exceptions map to
    /// kBadRequest (std::invalid_argument) or kInternal.
    std::function<std::vector<double>(const Item&)> compute;
  };

  explicit Batcher(Config config);

  /// Computes the item on the calling thread. Returns std::nullopt, without
  /// computing, when `queue_max` predicts are already in flight; the caller
  /// must answer kOverloaded.
  std::optional<ServeResult> admit(const Item& item);

 private:
  ServeResult serve_item(const Item& item, std::uint64_t admit_ns) const;

  Config config_;
  std::mutex mu_;
  std::size_t in_flight_ = 0;  // guarded by mu_
};

/// Validates a predict request against its resolved model; throws
/// std::invalid_argument (-> kBadRequest) on shape violations.
void validate_predict_request(const PredictRequest& request);

/// Default compute: rebuilds BenchmarkRuns from the request and runs
/// predict_distribution with a per-request Rng(seed) — responses are
/// deterministic for a given (model version, request) pair.
std::vector<double> default_compute(const Batcher::Item& item);

}  // namespace varpred::serve
