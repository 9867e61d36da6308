#include "serve/batcher.hpp"

#include <exception>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"

namespace varpred::serve {

namespace {

constexpr std::uint32_t kMaxSamplesPerRequest = 1u << 20;

}  // namespace

void validate_predict_request(const PredictRequest& request) {
  VARPRED_CHECK_ARG(!request.runtimes.empty(),
                    "predict request has no probe runtimes");
  VARPRED_CHECK_ARG(request.n_samples > 0, "n_samples must be positive");
  VARPRED_CHECK_ARG(request.n_samples <= kMaxSamplesPerRequest,
                    "n_samples exceeds the per-request cap");
  VARPRED_CHECK_ARG(
      request.counters.size() ==
          request.runtimes.size() * request.n_metrics,
      "counters must be runtimes x n_metrics values, row-major");
  for (const double t : request.runtimes) {
    VARPRED_CHECK_ARG(t > 0.0, "probe runtimes must be positive");
  }
}

std::vector<double> default_compute(const Batcher::Item& item) {
  const PredictRequest& req = item.request;
  validate_predict_request(req);
  measure::BenchmarkRuns runs;
  runs.benchmark = req.benchmark;
  runs.runtimes = req.runtimes;
  runs.counters = ml::Matrix(req.runtimes.size(), req.n_metrics);
  for (std::size_t r = 0; r < req.runtimes.size(); ++r) {
    for (std::size_t m = 0; m < req.n_metrics; ++m) {
      runs.counters.at(r, m) = req.counters[r * req.n_metrics + m];
    }
  }
  Rng rng(req.seed);
  return item.model->predictor.predict_distribution(runs, req.n_samples,
                                                    rng);
}

Batcher::Batcher(Config config) : config_(std::move(config)) {
  VARPRED_CHECK_ARG(config_.queue_max > 0, "queue_max must be positive");
  if (!config_.compute) config_.compute = default_compute;
}

std::optional<ServeResult> Batcher::admit(const Item& item) {
  const std::uint64_t admit_ns = obs::now_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (in_flight_ >= config_.queue_max) {
      VARPRED_OBS_COUNT("serve.rejected", 1);
      return std::nullopt;
    }
    ++in_flight_;
  }
  VARPRED_OBS_COUNT("serve.admitted", 1);
  ServeResult result = serve_item(item, admit_ns);
  std::lock_guard<std::mutex> lock(mu_);
  --in_flight_;
  return result;
}

ServeResult Batcher::serve_item(const Item& item,
                                std::uint64_t admit_ns) const {
  obs::TraceIdScope trace(item.trace_id);
  const std::uint64_t compute_begin = obs::now_ns();
  ServeResult result;
  try {
    obs::Span span("serve.compute");
    PredictResponse response;
    response.samples = config_.compute(item);
    response.version = item.model != nullptr ? item.model->version : 0;
    response.queue_ns = compute_begin - admit_ns;
    response.compute_ns = obs::now_ns() - compute_begin;
    result = ServeResult::success(std::move(response));
  } catch (const std::invalid_argument& e) {
    result = ServeResult::failure(ErrorCode::kBadRequest, e.what());
  } catch (const std::exception& e) {
    result = ServeResult::failure(ErrorCode::kInternal, e.what());
  }
  if (obs::enabled()) {
    obs::Registry::global()
        .hdr("serve.compute_ns")
        .record(obs::now_ns() - compute_begin);
  }
  return result;
}

}  // namespace varpred::serve
