// Shared plumbing of the varpred benchmark program: the run options, the
// result a workload hands back, wall-clock helpers, and the layer clock the
// traced runs use.
//
// Tracing lives in the benchmark's own files: a traced workload calls each
// layer's public function itself (FewRunsEvalCache::build,
// FewRunsPredictor::train, predict_encoded, DistributionRepr::reconstruct,
// ks_statistic, ...) and times the call. Layer times are summed over the
// threads that ran them, so inside a parallel fold loop they add up to more
// than the wall time.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a copy (lower-upper mean for even sizes); 0 for empty input.
double median_of(std::vector<double> values);

/// Nearest-rank percentile p in [0, 1]; 0 for empty input.
double percentile_of(std::vector<double> values, double p);

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Set-ups per process; each one's time is a setup_s sample.
inline constexpr std::size_t kSetups = 3;

/// Layers whose time a traced run attributes.
enum class Layer {
  kSimulate,     // measure::build_corpus / build_config_corpus / measure_benchmark
  kCache,        // core::FewRunsEvalCache::build / CrossSystemEvalCache::build
  kProfile,      // core::build_profile / make_features
  kFit,          // *Predictor::train / train_all
  kPredict,      // predict_encoded
  kReconstruct,  // DistributionRepr::reconstruct
  kScore,        // stats::ks_statistic
  kSearch,       // tune::tune_config
  kRespond,      // serve::PredictResponse::body + encode_frame
  kCount,
};

/// Accumulates per-layer busy time and per-layer work counts. Thread-safe
/// (relaxed atomics), so fold loops can record from every pool worker.
class LayerClock {
 public:
  template <typename F>
  decltype(auto) time(Layer layer, F&& fn) {
    struct Stop {
      LayerClock& clock;
      Layer layer;
      Clock::time_point t0 = Clock::now();
      ~Stop() {
        clock.add_ns(layer, static_cast<std::uint64_t>(
                                std::chrono::duration_cast<
                                    std::chrono::nanoseconds>(Clock::now() - t0)
                                    .count()));
      }
    } stop{*this, layer};
    return fn();
  }

  void add_ns(Layer layer, std::uint64_t ns) {
    ns_[static_cast<std::size_t>(layer)].fetch_add(ns,
                                                   std::memory_order_relaxed);
  }
  double seconds(Layer layer) const {
    return static_cast<double>(
               ns_[static_cast<std::size_t>(layer)].load(
                   std::memory_order_relaxed)) *
           1e-9;
  }

  std::atomic<std::uint64_t> runs{0};      ///< simulated measurement runs
  std::atomic<std::uint64_t> fits{0};      ///< model trainings
  std::atomic<std::uint64_t> samples{0};   ///< reconstructed samples
  std::atomic<std::uint64_t> scores{0};    ///< KS statistics computed
  std::atomic<std::uint64_t> tune_runs{0}; ///< runs spent by tune_config

 private:
  std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(Layer::kCount)>
      ns_{};
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main().
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Untraced runs: the raw seconds behind the timed end-to-end metrics,
  /// one per set-up (setup_s) or per pass (wall_s). run.py pools them over
  /// the processes of a run.
  std::vector<std::pair<std::string, std::vector<double>>> timings;
  /// Scores run.py compares with the references captured on the parent
  /// commit: name -> values (fold KS, tune objective ratios) ...
  std::vector<std::pair<std::string, std::vector<double>>> scores;
  /// ... and name -> exact strings (tune winners, response digests).
  std::vector<std::pair<std::string, std::string>> labels;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one operation; `ok` false counts it as failed.
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Runs `setup(state, clock)` kSetups times, keeps the last state, and
/// returns the seconds of each set-up. `clock` (traced runs only) is handed
/// to the last set-up alone, so the layer times count one set-up.
template <typename State, typename SetupFn>
std::vector<double> repeated_setup(State& state, LayerClock* clock,
                                   SetupFn&& setup) {
  std::vector<double> times;
  for (std::size_t i = 0; i < kSetups; ++i) {
    state = State{};  // release the previous set-up's memory first
    const auto t0 = Clock::now();
    setup(state, i + 1 == kSetups ? clock : nullptr);
    times.push_back(seconds_since(t0));
  }
  return times;
}

/// Calls fn() and, when `clock` is set, books its time under `layer`.
template <typename F>
decltype(auto) timed(LayerClock* clock, Layer layer, F&& fn) {
  if (clock == nullptr) return fn();
  return clock->time(layer, std::forward<F>(fn));
}

/// How a run splits its --seconds: untraced runs measure for all of it;
/// traced runs measure the untraced body for half and the traced body for
/// the other half, so the overhead of tracing is their difference.
inline double body_seconds(const Options& opts) {
  return opts.trace ? opts.seconds / 2.0 : opts.seconds;
}

/// True while another pass should run: fewer than `min_passes` are done, or
/// one more pass as long as the last would end nearer to `budget` seconds
/// than stopping now does.
inline bool another_pass(const std::vector<double>& pass_s,
                         std::size_t min_passes, Clock::time_point start,
                         double budget) {
  if (pass_s.size() < std::max<std::size_t>(min_passes, 1)) return true;
  return seconds_since(start) + pass_s.back() / 2 <= budget;
}

/// Emits the LayerClock metrics: one set-up's worth from `setup` plus one
/// pass's worth of `body`, which accumulated over `passes` traced passes.
void report_layers(const LayerClock& setup, const LayerClock& body,
                   std::size_t passes, Result& result);

/// Global-pool counters (busy/idle seconds and claimed chunks) over a
/// region, reported per pass.
struct PoolWindow {
  PoolWindow();
  void report(std::size_t passes, Result& result) const;

 private:
  std::uint64_t busy_ns_ = 0;
  std::uint64_t idle_ns_ = 0;
  std::uint64_t chunks_ = 0;
};

/// Every workload entry point: sets up, measures, checks, and returns the
/// end-to-end metrics (untraced) or the per-layer metrics (traced).
Result run_logo_trees(const Options& opts);
Result run_logo_knn(const Options& opts);
Result run_serve_predict(const Options& opts);
Result run_tune_sweep(const Options& opts);

}  // namespace perfbench
