// Shared helpers for the experiment harnesses: corpus construction with the
// canonical seeds, command-line parsing, result formatting, and the
// machine-readable telemetry hook. Every bench_fig* / bench_table* binary
// regenerates one table or figure of the paper, prints the rows/series the
// paper reports, and emits one BENCH_<name>.json run document (per-stage
// wall time, prediction-quality cells, pool telemetry, peak RSS, seed, git
// describe; obs/run_document.hpp) so the perf and accuracy trajectories
// accumulate as machine-readable history.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "common/thread_pool.hpp"
#include "core/varpred.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/quality.hpp"
#include "obs/run_document.hpp"
#include "stats/ecdf.hpp"

#if defined(__linux__) || defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define VARPRED_BENCH_HAVE_FD_SILENCER 1
#endif

// Injected by bench/CMakeLists.txt from `git describe --always --dirty` at
// configure time; "unknown" outside a git checkout.
#ifndef VARPRED_GIT_DESCRIBE
#define VARPRED_GIT_DESCRIBE "unknown"
#endif

namespace varpred::bench {

/// Canonical experiment constants: the paper measures every benchmark 1000
/// times; predictions are reconstructed with 2000 samples.
inline constexpr std::size_t kRuns = 1000;
inline constexpr std::uint64_t kCorpusSeed = 7;

struct HarnessArgs {
  std::size_t runs = kRuns;
  bool fast = false;  ///< --fast: smaller corpora / fewer cells for smoke use
  /// --repeat=N: time the whole harness body N times so every stage emits a
  /// wall-time *sample distribution* instead of a point estimate (the raw
  /// material for tools/bench_diff). Stage prints repeat only on the first
  /// pass; telemetry aggregates all N.
  std::size_t repeat = 1;
  /// --obs=off|summary|trace; overrides the VARPRED_OBS environment
  /// variable when present.
  std::optional<obs::Mode> obs_mode;
  /// --obs-out=<path>: run document path (default BENCH_<name>.json).
  std::string obs_out;

  /// Strict positive-integer flag value: rejects empty, signed,
  /// non-numeric, and trailing-garbage values (e.g. --repeat=bogus,
  /// --runs=-5) instead of reading 0 or a wrapped count.
  static bool parse_count(const char* text, std::size_t& out) {
    const std::optional<std::uint64_t> v = parse_u64_strict(text);
    if (!v || *v == 0) return false;
    out = static_cast<std::size_t>(*v);
    return true;
  }

  /// Handles one argv entry if it is a flag this parser owns. Shared by
  /// parse() and the google-benchmark harness (which must pass everything
  /// else through to the benchmark library).
  bool consume(const char* arg) {
    if (std::strcmp(arg, "--fast") == 0) {
      fast = true;
      runs = 300;
    } else if (std::strncmp(arg, "--runs=", 7) == 0) {
      if (!parse_count(arg + 7, runs)) return false;
    } else if (std::strncmp(arg, "--repeat=", 9) == 0) {
      if (!parse_count(arg + 9, repeat)) return false;
    } else if (std::strncmp(arg, "--obs=", 6) == 0) {
      obs::Mode mode;
      if (!obs::parse_mode(arg + 6, mode)) return false;
      obs_mode = mode;
    } else if (std::strncmp(arg, "--obs-out=", 10) == 0) {
      obs_out = arg + 10;
    } else {
      return false;
    }
    return true;
  }

  static HarnessArgs parse(int argc, char** argv) {
    HarnessArgs args;
    for (int i = 1; i < argc; ++i) {
      if (!args.consume(argv[i])) {
        std::fprintf(stderr,
                     "usage: %s [--fast] [--runs=N] [--repeat=N] "
                     "[--obs=off|summary|trace] [--obs-out=PATH]\n",
                     argv[0]);
        std::exit(2);
      }
    }
    return args;
  }
};

inline measure::Corpus intel_corpus(const HarnessArgs& args) {
  return measure::build_corpus(measure::SystemModel::intel(), args.runs,
                               kCorpusSeed);
}

inline measure::Corpus amd_corpus(const HarnessArgs& args) {
  return measure::build_corpus(measure::SystemModel::amd(), args.runs,
                               kCorpusSeed);
}

/// One violin row: label + summary + a sparkline of the KS scores.
inline void print_violin_row(io::TextTable& table, const std::string& a,
                             const std::string& b,
                             const core::EvalResult& result) {
  const auto s = result.summary();
  table.add_row({a, b, format_fixed(s.mean, 3), format_fixed(s.median, 3),
                 format_fixed(s.q1, 3), format_fixed(s.q3, 3),
                 format_fixed(s.min, 3), format_fixed(s.max, 3),
                 stats::density_sparkline(result.ks, 0.0, 0.8, 24)});
}

inline io::TextTable violin_table(const std::string& first_col,
                                  const std::string& second_col) {
  return io::TextTable({first_col, second_col, "meanKS", "median", "q1", "q3",
                        "min", "max", "violin(0..0.8)"});
}

/// Prints the global pool's telemetry snapshot — how many parallel spans the
/// harness ran, how chunked they were, and the workers' busy/idle split.
inline void print_pool_stats(const char* tag) {
  const PoolStats s = ThreadPool::global().stats();
  const double avg_chunk =
      s.chunks == 0 ? 0.0
                    : static_cast<double>(s.iterations) /
                          static_cast<double>(s.chunks);
  std::printf(
      "[pool] %s: workers=%zu spans=%llu chunks=%llu iters=%llu "
      "(avg %.1f iters/chunk) wakeups=%llu stale=%llu busy=%.3fs idle=%.3fs\n",
      tag, ThreadPool::global().worker_count(),
      static_cast<unsigned long long>(s.jobs),
      static_cast<unsigned long long>(s.chunks),
      static_cast<unsigned long long>(s.iterations), avg_chunk,
      static_cast<unsigned long long>(s.wakeups),
      static_cast<unsigned long long>(s.stale_skipped),
      static_cast<double>(s.busy_ns) * 1e-9,
      static_cast<double>(s.idle_ns) * 1e-9);
}

/// Per-run telemetry harness. Construct it first thing in main(): it
/// applies the --obs override, prints a reproducibility header (name, seed,
/// corpus size, worker count, obs mode, git describe, hostname, wall-clock
/// timestamp — enough to rerun the binary from a log alone), and starts a
/// fresh pool-stats epoch. Mark stage boundaries with stage("name"), or
/// add a self-measured value with record("name", seconds); under
/// --repeat=N the harness body runs N times (see run_repeated) and each
/// stage accumulates one sample per repetition. The destructor
/// closes the last stage and writes the run document BENCH_<name>.json
/// (schema v5: the stages and every recorded quality cell), and
/// BENCH_<name>.trace.json in trace mode.
class Run {
 public:
  Run(std::string name, const HarnessArgs& args,
      std::uint64_t seed = kCorpusSeed)
      : name_(std::move(name)),
        args_(args),
        seed_(seed),
        hostname_(obs::hostname()),
        timestamp_(obs::iso8601_utc_now()) {
    if (args_.obs_mode) obs::set_mode(*args_.obs_mode);
    std::printf(
        "[bench] %s seed=%llu runs=%zu repeat=%zu workers=%zu obs=%s "
        "git=%s host=%s time=%s\n",
        name_.c_str(), static_cast<unsigned long long>(seed_), args_.runs,
        args_.repeat, ThreadPool::global().worker_count(),
        obs::to_string(obs::mode()), VARPRED_GIT_DESCRIBE, hostname_.c_str(),
        timestamp_.c_str());
    // Accuracy scores are observables too: switch the process-global
    // quality recorder on for the harness body (the library default is
    // off) and start from a clean slate.
    obs::QualityRecorder::set_enabled(true);
    obs::QualityRecorder::instance().reset();
    ThreadPool::global().reset_stats();
    start_ = clock::now();
    stage_start_ = start_;
  }

  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  std::size_t repeat() const { return args_.repeat; }

  /// Index of the current repetition (0-based; 0 before the first
  /// begin_repetition()).
  std::size_t repetition() const { return repetition_; }

  /// Seed for the current repetition: the base seed on the first pass (so
  /// --repeat=1 reproduces the printed numbers exactly), an independent
  /// derived stream afterwards. Harness bodies that feed this into their
  /// evaluation seeds turn --repeat=N into N seed-varied quality samples
  /// per cell — the raw material for the bench_diff quality bootstrap.
  std::uint64_t repetition_seed(std::uint64_t base) const {
    return repetition_ == 0
               ? base
               : seed_combine(base, static_cast<std::uint64_t>(repetition_));
  }
  std::uint64_t repetition_seed() const { return repetition_seed(seed_); }

  /// Closes the current stage (if any) and opens a new one. Calling
  /// stage("x") again on a later repetition appends another sample to x.
  void stage(const char* name) {
    close_stage();
    current_stage_ = name;
    stage_start_ = clock::now();
  }

  /// Appends one sample (seconds, lower is better) to the series `name`
  /// without timing anything, for quantities the harness measures itself
  /// (bench_serve's latency quantiles). Recorded once per repetition, a
  /// series reads exactly like a stage in the document and in bench_diff.
  void record(std::string_view name, double seconds) {
    series(name).samples.push_back(seconds);
  }

  /// Repetition boundary (run_repeated calls this before every pass):
  /// closes the open stage so its sample lands in the finished repetition.
  void begin_repetition() {
    close_stage();
    repetition_ = started_ ? repetition_ + 1 : 0;
    started_ = true;
  }

  ~Run() {
    close_stage();
    obs::RunDocument doc;
    doc.wall_seconds = seconds_since(start_);
    doc.provenance = {name_,      VARPRED_GIT_DESCRIBE,
                      hostname_,  timestamp_,
                      obs::to_string(obs::mode()),
                      seed_,      args_.runs,
                      ThreadPool::global().worker_count(),
                      args_.repeat, args_.fast};
    const PoolStats pool = ThreadPool::global().stats();
    doc.pool = {pool.jobs, pool.chunks, pool.iterations, pool.wakeups,
                pool.stale_skipped, static_cast<double>(pool.busy_ns) * 1e-9,
                static_cast<double>(pool.idle_ns) * 1e-9};
    doc.peak_rss_kb = obs::peak_rss_kb();
    if (obs::enabled()) doc.metrics = obs::json::parse(obs::metrics_json());
    doc.stages = std::move(stages_);
    // Every run carries its cells, even when the harness body recorded
    // none (an empty list says "this bench makes no predictions" —
    // distinguishable from "emission broke").
    doc.cells = obs::QualityRecorder::instance().snapshot();

    // Reproducibility footer: exact sample quantiles whenever --repeat
    // produced a distribution, so repeat runs show them without opening
    // the JSON.
    for (const obs::StageSamples& stage : doc.stages) {
      if (stage.samples.size() < 2) continue;
      std::printf("[bench] stage %s: n=%zu p50=%.6fs p99=%.6fs\n",
                  stage.name.c_str(), stage.samples.size(),
                  stats::quantile(stage.samples, 0.50),
                  stats::quantile(stage.samples, 0.99));
    }
    const std::string path =
        args_.obs_out.empty() ? "BENCH_" + name_ + ".json" : args_.obs_out;
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
      return;
    }
    out << obs::run_document_json(doc) << "\n";
    std::printf("[bench] run document -> %s (%zu stages, %zu cells)\n",
                path.c_str(), doc.stages.size(), doc.cells.size());

    if (obs::mode() == obs::Mode::kTrace) {
      // BENCH_x.json -> BENCH_x.trace.json
      const std::string trace_path =
          (path.size() > 5 && path.ends_with(".json")
               ? path.substr(0, path.size() - 5)
               : path) +
          ".trace.json";
      std::ofstream trace(trace_path);
      if (trace) {
        obs::write_trace_json(trace);
        std::printf("[bench] chrome trace -> %s\n", trace_path.c_str());
      }
    }
    if (obs::mode() == obs::Mode::kSummary) {
      std::printf("%s", obs::summary_text().c_str());
    }
  }

 private:
  using clock = std::chrono::steady_clock;

  static double seconds_since(clock::time_point t0) {
    return std::chrono::duration<double>(clock::now() - t0).count();
  }

  /// Samples for one stage name, in arrival (repetition) order.
  obs::StageSamples& series(std::string_view name) {
    for (obs::StageSamples& s : stages_) {
      if (s.name == name) return s;
    }
    stages_.push_back(obs::StageSamples{std::string(name), {}});
    return stages_.back();
  }

  void close_stage() {
    if (current_stage_ == nullptr) return;
    record(current_stage_, seconds_since(stage_start_));
    current_stage_ = nullptr;
  }

  std::string name_;
  HarnessArgs args_;
  std::uint64_t seed_;
  std::string hostname_;
  std::string timestamp_;
  clock::time_point start_;
  clock::time_point stage_start_;
  const char* current_stage_ = nullptr;
  std::size_t repetition_ = 0;
  bool started_ = false;
  std::vector<obs::StageSamples> stages_;
};

/// Redirects fd 1 to /dev/null between silence() and restore() so repeated
/// harness passes don't print the same tables N times. Covers printf and
/// C++ streams alike; a no-op on platforms without dup2.
class StdoutSilencer {
 public:
  StdoutSilencer() = default;
  ~StdoutSilencer() { restore(); }
  StdoutSilencer(const StdoutSilencer&) = delete;
  StdoutSilencer& operator=(const StdoutSilencer&) = delete;

  void silence() {
#if VARPRED_BENCH_HAVE_FD_SILENCER
    if (saved_fd_ != -1) return;
    std::fflush(stdout);
    saved_fd_ = ::dup(1);
    if (saved_fd_ == -1) return;
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull == -1) {
      ::close(saved_fd_);
      saved_fd_ = -1;
      return;
    }
    ::dup2(devnull, 1);
    ::close(devnull);
#endif
  }

  void restore() {
#if VARPRED_BENCH_HAVE_FD_SILENCER
    if (saved_fd_ == -1) return;
    std::fflush(stdout);
    ::dup2(saved_fd_, 1);
    ::close(saved_fd_);
    saved_fd_ = -1;
#endif
  }

 private:
  int saved_fd_ = -1;
};

/// Runs a harness body under a bench::Run, honoring --repeat=N: the body
/// executes N times against the same Run, so every run.stage("x") call
/// contributes one wall-time sample per repetition to stage x. The first
/// pass prints normally; later passes are silenced (they exist to be
/// timed, not read). Telemetry is written once, after the last pass.
/// Returns 0, or 1 after printing "error: <what>" to stderr (as the varpred
/// CLI does) when the harness throws, e.g. on a malformed VARPRED_WORKERS.
template <typename Body>
int run_repeated(std::string name, const HarnessArgs& args, Body&& body) {
  try {
    Run run(std::move(name), args);
    {
      StdoutSilencer silencer;
      for (std::size_t rep = 0; rep < run.repeat(); ++rep) {
        if (rep == 1) silencer.silence();
        run.begin_repetition();
        body(run);
      }
    }  // stdout restored before ~Run prints the telemetry path
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace varpred::bench
