// varpred benchmark program.
//
//   perfbench --workload <logo_trees|logo_knn|serve_predict|tune_sweep>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints human-readable progress, then one line
//   RESULT {"workload":..,"attempted":..,"failed":..,"env":{..},
//           "metrics":{..},"timings":{..},"scores":{..},"labels":{..},
//           "tolerance":..}
// that run.py turns into the benchmark's verdict. Untraced runs report the
// raw set-up and pass times behind the timed end-to-end metrics plus
// peak_rss_mb, traced runs the per-layer metrics of the layers the workload
// calls; run.py checks them against BENCHMARK.json.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "obs/json.hpp"
#include "obs/quality.hpp"

namespace perfbench {

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile_of(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

PoolWindow::PoolWindow() {
  const varpred::PoolStats s = varpred::ThreadPool::global().stats();
  busy_ns_ = s.busy_ns;
  idle_ns_ = s.idle_ns;
  chunks_ = s.chunks;
}

void PoolWindow::report(std::size_t passes, Result& result) const {
  const varpred::PoolStats s = varpred::ThreadPool::global().stats();
  const double per = 1.0 / static_cast<double>(std::max<std::size_t>(passes, 1));
  result.metric("pool.busy_s", static_cast<double>(s.busy_ns - busy_ns_) * 1e-9 * per, "s");
  result.metric("pool.idle_s", static_cast<double>(s.idle_ns - idle_ns_) * 1e-9 * per, "s");
  result.metric("pool.chunks", static_cast<double>(s.chunks - chunks_) * per, "count");
}

void report_layers(const LayerClock& setup, const LayerClock& body,
                   std::size_t passes, Result& result) {
  const double per = 1.0 / static_cast<double>(std::max<std::size_t>(passes, 1));
  const auto secs = [&](const char* name, Layer layer) {
    result.metric(name, setup.seconds(layer) + body.seconds(layer) * per, "s");
  };
  const auto count = [&](const char* name,
                         const std::atomic<std::uint64_t> LayerClock::*field) {
    result.metric(name,
                  static_cast<double>((setup.*field).load()) +
                      static_cast<double>((body.*field).load()) * per,
                  "count");
  };
  secs("measure.simulate_s", Layer::kSimulate);
  count("measure.runs", &LayerClock::runs);
  secs("core.cache_s", Layer::kCache);
  secs("core.profile_s", Layer::kProfile);
  secs("ml.fit_s", Layer::kFit);
  count("ml.fits", &LayerClock::fits);
  secs("ml.predict_s", Layer::kPredict);
  secs("core.reconstruct_s", Layer::kReconstruct);
  count("core.samples", &LayerClock::samples);
  secs("stats.score_s", Layer::kScore);
  count("stats.scores", &LayerClock::scores);
  secs("tune.search_s", Layer::kSearch);
  count("tune.runs_spent", &LayerClock::tune_runs);
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <logo_trees|"
               "logo_knn|serve_predict|tune_sweep> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opts.workload = value;
      } else if (flag == "--seed") {
        opts.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opts.trace = value == "1";
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (opts.workload.empty()) usage("--workload is required");
  if (!(opts.seconds > 0.0)) usage("--seconds must be positive");
  return opts;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  namespace json = varpred::obs::json;
  const Options opts = parse(argc, argv);

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const std::size_t workers = varpred::ThreadPool::global().worker_count();
  std::printf("workload %s seed %llu seconds %g trace %d | nproc %ld, pool "
              "workers %zu, build %s, git %s\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0, nproc, workers,
              PERFBENCH_BUILD_TYPE, PERFBENCH_GIT_DESCRIBE);

  Result result;
  try {
    if (opts.workload == "logo_trees") {
      result = run_logo_trees(opts);
    } else if (opts.workload == "logo_knn") {
      result = run_logo_knn(opts);
    } else if (opts.workload == "serve_predict") {
      result = run_serve_predict(opts);
    } else if (opts.workload == "tune_sweep") {
      result = run_tune_sweep(opts);
    } else {
      usage(("unknown workload " + opts.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!opts.trace) result.metric("peak_rss_mb", peak_rss_mb(), "MB");

  std::string metrics;
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
    if (!metrics.empty()) metrics += ',';
    metrics.append("\"").append(m.name).append("\":{\"value\":")
        .append(number(m.value)).append(",\"unit\":\"").append(m.unit)
        .append("\"}");
  }

  const auto arrays = [&](const auto& named) {
    std::string out;
    for (const auto& [name, values] : named) {
      if (!out.empty()) out += ',';
      out.append("\"").append(json::escape(name)).append("\":[");
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ',';
        out += std::isfinite(values[i]) ? number(values[i]) : "null";
      }
      out += ']';
    }
    return out;
  };
  const std::string scores = arrays(result.scores);
  const std::string timings = arrays(result.timings);
  std::string labels;
  for (const auto& [name, value] : result.labels) {
    if (!labels.empty()) labels += ',';
    labels.append("\"").append(json::escape(name)).append("\":\"")
        .append(json::escape(value)).append("\"");
  }
  std::printf("operations attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  std::printf(
      "RESULT {\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
      "\"attempted\":%llu,\"failed\":%llu,\"tolerance\":%s,"
      "\"env\":{\"nproc\":%ld,\"workers\":%zu,\"build_type\":\"%s\","
      "\"git\":\"%s\"},\"metrics\":{%s},\"timings\":{%s},\"scores\":{%s},"
      "\"labels\":{%s}}\n",
      json::escape(opts.workload).c_str(),
      static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      number(varpred::obs::QualityDiffConfig{}.tolerance).c_str(), nproc,
      workers, PERFBENCH_BUILD_TYPE,
      json::escape(PERFBENCH_GIT_DESCRIBE).c_str(), metrics.c_str(),
      timings.c_str(), scores.c_str(), labels.c_str());
  return 0;
}
