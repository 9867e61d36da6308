// Shared helpers for the experiment harnesses: corpus construction with the
// canonical seeds, command-line parsing, result formatting, and the
// machine-readable telemetry hook. Every bench_fig* / bench_table* binary
// regenerates one table or figure of the paper, prints the rows/series the
// paper reports, and emits a BENCH_<name>.json document (per-stage wall
// time, pool telemetry, peak RSS, seed, git describe) so the perf
// trajectory accumulates as machine-readable history.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "common/thread_pool.hpp"
#include "core/varpred.hpp"
#include "obs/expose.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/quality.hpp"
#include "stats/moments.hpp"

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
  /// --obs-out=<path>: telemetry JSON path (default BENCH_<name>.json).
  std::string obs_out;
  /// --quality-out=<path>: prediction-quality JSON path (default
  /// QUALITY_<name>.json).
  std::string quality_out;
  /// --prof=HZ: run the span-attributed sampling profiler over the harness
  /// body at HZ samples/s (0 = off, the default).
  double prof_hz = 0.0;
  /// --prof-out=<path>: collapsed-stack output path (default
  /// PROF_<name>.collapsed).
  std::string prof_out;

  /// Strict positive-integer flag value: rejects empty, non-numeric, and
  /// trailing-garbage values (e.g. --repeat=bogus) instead of reading 0.
  static bool parse_count(const char* text, std::size_t& out) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || v == 0) return false;
    out = static_cast<std::size_t>(v);
    return true;
  }

  /// Strict sampling-rate value: a finite number in [1, 1000] Hz.
  static bool parse_hz(const char* text, double& out) {
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(v >= 1.0) || v > 1000.0) return false;
    out = v;
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
    } else if (std::strncmp(arg, "--quality-out=", 14) == 0) {
      quality_out = arg + 14;
    } else if (std::strncmp(arg, "--prof=", 7) == 0) {
      if (!parse_hz(arg + 7, prof_hz)) return false;
    } else if (std::strncmp(arg, "--prof-out=", 11) == 0) {
      prof_out = arg + 11;
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
                     "[--obs=off|summary|trace] [--obs-out=PATH] "
                     "[--quality-out=PATH] [--prof=HZ] [--prof-out=PATH]\n",
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
/// closes the last stage and writes BENCH_<name>.json — telemetry schema
/// v3: per-stage sample vectors, streaming moments, and HDR tail quantiles
/// (p50/p90/p99/p999) — (and BENCH_<name>.trace.json in trace mode). With
/// --prof=HZ it also runs the sampling profiler over the harness body and
/// writes PROF_<name>.collapsed flamegraph input.
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
    if (args_.prof_hz > 0.0) {
      profiling_ = obs::profiler_start(args_.prof_hz);
      if (profiling_) {
        std::printf("[bench] profiling at %.0f Hz\n", args_.prof_hz);
      } else {
        std::fprintf(stderr, "[bench] profiler already running; --prof=%g "
                             "ignored\n",
                     args_.prof_hz);
      }
    }
    // Long-running exposition (VARPRED_OBS_EXPOSE=prom:...|jsonl:...):
    // scoped to the harness body so the sink ends with the final state.
    exposing_ = obs::maybe_start_exporter_from_env();
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
    const double wall = seconds_since(start_);
    const PoolStats pool = ThreadPool::global().stats();
    if (exposing_) obs::exporter_stop();
    if (profiling_) {
      const obs::ProfileReport profile = obs::profiler_stop();
      const std::string prof_path = args_.prof_out.empty()
                                        ? "PROF_" + name_ + ".collapsed"
                                        : args_.prof_out;
      std::ofstream pout(prof_path);
      if (pout) {
        pout << profile.collapsed_text();
        std::printf(
            "[bench] profile -> %s (%llu samples, %llu idle, %.1f Hz over "
            "%.2fs)\n",
            prof_path.c_str(),
            static_cast<unsigned long long>(profile.samples),
            static_cast<unsigned long long>(profile.idle_samples), profile.hz,
            profile.duration_seconds);
      } else {
        std::fprintf(stderr, "[bench] cannot write %s\n", prof_path.c_str());
      }
    }
    // Reproducibility footer: per-stage tails whenever --repeat produced a
    // distribution, so repeat runs show p50/p99 without opening the JSON.
    for (const StageAgg& stage : stages_) {
      if (stage.samples.size() < 2) continue;
      const StageTails tails = stage_tails(stage.samples);
      std::printf("[bench] stage %s: n=%zu p50=%.6fs p99=%.6fs\n",
                  stage.name.c_str(), stage.samples.size(), tails.p50,
                  tails.p99);
    }
    const std::string path =
        args_.obs_out.empty() ? "BENCH_" + name_ + ".json" : args_.obs_out;
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
      return;
    }
    write_json(out, wall, pool);
    std::printf("[bench] telemetry -> %s\n", path.c_str());

    // Quality document: every bench emits one, even when the harness body
    // recorded nothing (an empty cell list says "this bench makes no
    // predictions" — distinguishable from "emission broke").
    obs::QualityDocument quality;
    quality.provenance.bench = name_;
    quality.provenance.git = VARPRED_GIT_DESCRIBE;
    quality.provenance.hostname = hostname_;
    quality.provenance.timestamp = timestamp_;
    quality.provenance.obs_mode = obs::to_string(obs::mode());
    quality.provenance.seed = seed_;
    quality.provenance.runs = args_.runs;
    quality.provenance.workers = ThreadPool::global().worker_count();
    quality.provenance.repeat = args_.repeat;
    quality.provenance.fast = args_.fast;
    quality.cells = obs::QualityRecorder::instance().snapshot();
    const std::string quality_path = args_.quality_out.empty()
                                         ? "QUALITY_" + name_ + ".json"
                                         : args_.quality_out;
    std::ofstream qout(quality_path);
    if (qout) {
      qout << obs::quality_document_json(quality) << "\n";
      std::printf("[bench] quality -> %s (%zu cells)\n", quality_path.c_str(),
                  quality.cells.size());
    } else {
      std::fprintf(stderr, "[bench] cannot write %s\n", quality_path.c_str());
    }

    if (obs::mode() == obs::Mode::kTrace) {
      const std::string trace_path = trace_path_for(path);
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

  /// Samples for one stage name, in arrival (repetition) order.
  struct StageAgg {
    std::string name;
    std::vector<double> samples;
  };

  struct StageTails {
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
  };

  /// Tail quantiles of a stage's wall-time samples (seconds) through an
  /// HDR sketch at ns resolution — the same machinery the registry uses,
  /// so the JSON quantiles inherit its <=0.1% relative-error bound
  /// (3 significant digits).
  static StageTails stage_tails(const std::vector<double>& samples) {
    obs::HdrHistogram hdr(3);
    for (const double s : samples) {
      hdr.record(static_cast<std::uint64_t>(std::max(0.0, s) * 1e9));
    }
    const obs::HdrSnapshot snap = hdr.snapshot();
    StageTails tails;
    tails.p50 = static_cast<double>(snap.quantile(0.50)) * 1e-9;
    tails.p90 = static_cast<double>(snap.quantile(0.90)) * 1e-9;
    tails.p99 = static_cast<double>(snap.quantile(0.99)) * 1e-9;
    tails.p999 = static_cast<double>(snap.quantile(0.999)) * 1e-9;
    return tails;
  }

  static double seconds_since(clock::time_point t0) {
    return std::chrono::duration<double>(clock::now() - t0).count();
  }

  static std::string trace_path_for(std::string path) {
    const std::string suffix = ".json";
    if (path.size() > suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      path.resize(path.size() - suffix.size());
    }
    return path + ".trace.json";
  }

  StageAgg& series(std::string_view name) {
    for (StageAgg& s : stages_) {
      if (s.name == name) return s;
    }
    stages_.push_back(StageAgg{std::string(name), {}});
    return stages_.back();
  }

  void close_stage() {
    if (current_stage_ == nullptr) return;
    record(current_stage_, seconds_since(stage_start_));
    current_stage_ = nullptr;
  }

  void write_json(std::ofstream& out, double wall, const PoolStats& pool) {
    namespace json = obs::json;
    out << "{\"schema_version\":3"
        << ",\"bench\":\"" << json::escape(name_) << "\""
        << ",\"git\":\"" << json::escape(VARPRED_GIT_DESCRIBE) << "\""
        << ",\"hostname\":\"" << json::escape(hostname_) << "\""
        << ",\"timestamp\":\"" << json::escape(timestamp_) << "\""
        << ",\"seed\":" << seed_ << ",\"runs\":" << args_.runs
        << ",\"repeat\":" << args_.repeat
        << ",\"fast\":" << (args_.fast ? "true" : "false")
        << ",\"workers\":" << ThreadPool::global().worker_count()
        << ",\"obs_mode\":\"" << obs::to_string(obs::mode()) << "\""
        << ",\"wall_seconds\":" << json::number(wall) << ",\"stages\":[";
    bool first = true;
    for (const StageAgg& stage : stages_) {
      if (!first) out << ",";
      first = false;
      // Streaming moments + extremes alongside the raw sample vector:
      // "seconds" keeps the v1 meaning (total over all repetitions).
      stats::MomentAccumulator acc;
      double total = 0.0;
      double min = stage.samples.front();
      double max = stage.samples.front();
      for (const double s : stage.samples) {
        acc.add(s);
        total += s;
        min = std::min(min, s);
        max = std::max(max, s);
      }
      const stats::Moments m = acc.moments();
      out << "{\"name\":\"" << json::escape(stage.name)
          << "\",\"seconds\":" << json::number(total) << ",\"samples\":[";
      bool first_sample = true;
      for (const double s : stage.samples) {
        if (!first_sample) out << ",";
        first_sample = false;
        out << json::number(s);
      }
      const StageTails tails = stage_tails(stage.samples);
      out << "],\"mean\":" << json::number(m.mean)
          << ",\"stddev\":" << json::number(m.stddev)
          << ",\"min\":" << json::number(min)
          << ",\"max\":" << json::number(max)
          << ",\"p50\":" << json::number(tails.p50)
          << ",\"p90\":" << json::number(tails.p90)
          << ",\"p99\":" << json::number(tails.p99)
          << ",\"p999\":" << json::number(tails.p999) << "}";
    }
    out << "],\"pool\":{"
        << "\"spans\":" << pool.jobs << ",\"chunks\":" << pool.chunks
        << ",\"iterations\":" << pool.iterations
        << ",\"wakeups\":" << pool.wakeups
        << ",\"stale\":" << pool.stale_skipped << ",\"busy_seconds\":"
        << json::number(static_cast<double>(pool.busy_ns) * 1e-9)
        << ",\"idle_seconds\":"
        << json::number(static_cast<double>(pool.idle_ns) * 1e-9) << "}"
        << ",\"peak_rss_kb\":" << obs::peak_rss_kb() << ",\"metrics\":";
    if (obs::enabled()) {
      obs::write_metrics_json(out);
    } else {
      out << "null";
    }
    out << "}\n";
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
  bool profiling_ = false;  ///< this Run owns an active profiler session
  bool exposing_ = false;   ///< this Run started the exposition exporter
  std::vector<StageAgg> stages_;
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
template <typename Body>
int run_repeated(std::string name, const HarnessArgs& args, Body&& body) {
  Run run(std::move(name), args);
  {
    StdoutSilencer silencer;
    for (std::size_t rep = 0; rep < run.repeat(); ++rep) {
      if (rep == 1) silencer.silence();
      run.begin_repetition();
      body(run);
    }
  }  // stdout restored before ~Run prints the telemetry path
  return 0;
}

}  // namespace varpred::bench
