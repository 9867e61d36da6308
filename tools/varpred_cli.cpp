// varpred command-line tool.
//
//   varpred measure   --system=intel --benchmark=specomp/376 --runs=100
//                     [--csv=out.csv]
//       Simulates a measurement campaign for one benchmark and prints (or
//       exports) the runs: runtime plus every counter.
//
//   varpred train     --system=intel --runs=1000 --probes=10
//                     --model=model.vp [--repr=pearson|hist|maxent|quantile]
//       Trains a use-case-1 predictor on the full Table I corpus and
//       serializes it.
//
//   varpred train-x   --source=amd --target=intel --runs=1000
//                     --model=model.vp [--repr=...]
//       Trains a use-case-2 (system-to-system) predictor and serializes it.
//
//   varpred predict   --model=model.vp --benchmark=specomp/376 --probes=10
//                     [--svg=fig.svg]
//       Loads a serialized use-case-1 predictor, profiles the benchmark
//       with a few fresh runs, predicts its distribution, and prints the
//       overlay against the measured truth.
//
//   varpred evaluate  --system=intel --runs=500 [--repr=...] [--model-kind=knn]
//       Leave-one-benchmark-out KS evaluation (one Fig. 4 cell).
//
//   varpred tune      --system=intel --benchmark=parsec/streamcluster
//                     [--budget=600] [--exhaustive]
//       Variability-aware configuration tuning: trains a config-aware
//       surrogate on a sampled (config x benchmark) corpus, screens the
//       full knob grid with it, and spends the measurement budget on the
//       shortlist via successive halving. --exhaustive also measures every
//       config at full depth and reports the tuner's regret against it.
//
//   varpred systems | benchmarks | metrics --system=...
//       Inventory listings.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/parse.hpp"
#include "common/text.hpp"
#include "core/varpred.hpp"
#include "io/serialize.hpp"
#include "io/svg_plot.hpp"
#include "measure/measurement_io.hpp"

namespace {

using namespace varpred;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  /// Telemetry flags shared with the bench harnesses (--obs=, --obs-out=,
  /// --repeat=). When any is present the command runs under
  /// bench::run_repeated and emits the run document
  /// BENCH_cli_<command>.json; otherwise the CLI behaves exactly as before
  /// (no telemetry file, no extra output).
  bench::HarnessArgs harness;
  bool telemetry = false;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  std::size_t get_size(const std::string& key, std::size_t fallback) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    // Strict (shared with the gate tools): rejects empty, non-numeric,
    // negative, out-of-range, and trailing-garbage values (e.g.
    // --runs=1e3) instead of silently truncating them. Zero is allowed —
    // it is a valid seed.
    return static_cast<std::size_t>(
        require_u64_flag("--" + key, it->second));
  }
  bool has(const std::string& key) const { return options.count(key) > 0; }
};

bool is_telemetry_flag(const std::string& token) {
  return starts_with(token, "--obs=") || starts_with(token, "--obs-out=") ||
         starts_with(token, "--repeat=");
}

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (is_telemetry_flag(token)) {
      if (!args.harness.consume(token.c_str())) {
        std::fprintf(stderr, "error: bad telemetry flag %s\n", token.c_str());
        std::exit(2);
      }
      args.telemetry = true;
    } else if (starts_with(token, "--")) {
      const auto eq = token.find('=');
      if (eq == std::string::npos) {
        args.options[token.substr(2)] = "1";
      } else {
        args.options[token.substr(2, eq - 2)] = token.substr(eq + 1);
      }
    }
  }
  return args;
}

core::ReprKind parse_repr(const std::string& name) {
  if (name == "pearson") return core::ReprKind::kPearson;
  if (name == "hist" || name == "histogram") return core::ReprKind::kHistogram;
  if (name == "maxent") return core::ReprKind::kMaxEnt;
  if (name == "quantile") return core::ReprKind::kQuantile;
  throw std::invalid_argument("unknown repr: " + name);
}

core::ModelKind parse_model_kind(const std::string& name) {
  if (name == "knn") return core::ModelKind::kKnn;
  if (name == "rf") return core::ModelKind::kRandomForest;
  if (name == "xgb" || name == "xgboost") return core::ModelKind::kXgBoost;
  if (name == "ridge") return core::ModelKind::kRidge;
  throw std::invalid_argument("unknown model kind: " + name);
}

int cmd_systems() {
  io::TextTable table({"system", "metrics", "numa_factor", "jitter_base",
                       "tail_factor"});
  for (const auto* system : measure::SystemModel::all_systems()) {
    table.add_row({system->name(), std::to_string(system->metric_count()),
                   format_fixed(system->numa_factor(), 2),
                   format_fixed(system->jitter_base(), 4),
                   format_fixed(system->tail_factor(), 2)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_benchmarks() {
  io::TextTable table({"benchmark", "base_runtime_s"});
  for (const auto& bench : measure::benchmark_table()) {
    table.add_row({bench.full_name(),
                   format_fixed(bench.base_runtime_seconds, 1)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_metrics(const Args& args) {
  const auto& system = measure::SystemModel::by_name(args.get("system",
                                                              "intel"));
  io::TextTable table({"id", "metric", "category"});
  for (const auto& metric : system.metrics()) {
    table.add_row({std::to_string(metric.id), metric.name,
                   measure::to_string(metric.category)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_measure(const Args& args) {
  const auto& system = measure::SystemModel::by_name(args.get("system",
                                                              "intel"));
  const auto bench_name = args.get("benchmark", "specomp/376");
  const auto runs = args.get_size("runs", 100);
  const auto runs_data = measure::measure_benchmark(
      measure::benchmark_index(bench_name), system, runs,
      args.get_size("seed", 7));

  if (args.has("csv")) {
    io::CsvTable csv;
    csv.header = {"run", "runtime_seconds"};
    for (const auto& metric : system.metrics()) {
      csv.header.push_back(metric.name);
    }
    for (std::size_t r = 0; r < runs_data.run_count(); ++r) {
      std::vector<std::string> row = {std::to_string(r),
                                      format_fixed(runs_data.runtimes[r], 6)};
      for (std::size_t m = 0; m < system.metric_count(); ++m) {
        row.push_back(format_fixed(runs_data.counters(r, m), 3));
      }
      csv.rows.push_back(std::move(row));
    }
    io::save_csv(csv, args.get("csv", ""));
    std::printf("wrote %zu runs x %zu metrics to %s\n", runs,
                system.metric_count(), args.get("csv", "").c_str());
  } else {
    const auto rel = runs_data.relative_times();
    const auto m = stats::compute_moments(rel);
    std::printf("%s on %s: %zu runs\n", bench_name.c_str(),
                system.name().c_str(), runs);
    std::printf("  mean runtime %.3f s, relative sd=%.4f skew=%+.2f "
                "kurt=%.2f\n",
                stats::mean(runs_data.runtimes), m.stddev, m.skewness,
                m.kurtosis);
    double lo;
    double hi;
    io::plot_range(rel, rel, lo, hi);
    std::printf("%s", io::density_plot(rel, lo, hi).c_str());
  }
  return 0;
}

int cmd_train(const Args& args) {
  const auto& system = measure::SystemModel::by_name(args.get("system",
                                                              "intel"));
  const auto path = args.get("model", "model.vp");
  std::printf("measuring corpus on %s...\n", system.name().c_str());
  const auto corpus =
      measure::build_corpus(system, args.get_size("runs", 1000), 7);

  core::FewRunsConfig config;
  config.repr = parse_repr(args.get("repr", "pearson"));
  config.model = parse_model_kind(args.get("model-kind", "knn"));
  config.n_probe_runs = args.get_size("probes", 10);
  core::FewRunsPredictor predictor(config);
  predictor.train_all(corpus);

  std::ofstream out(path);
  predictor.save(out);
  std::printf("trained %s + %s (probes=%zu) -> %s\n",
              core::to_string(config.repr).c_str(),
              core::to_string(config.model).c_str(), config.n_probe_runs,
              path.c_str());
  return 0;
}

int cmd_train_x(const Args& args) {
  const auto& source = measure::SystemModel::by_name(args.get("source",
                                                              "amd"));
  const auto& target = measure::SystemModel::by_name(args.get("target",
                                                              "intel"));
  const auto path = args.get("model", "model.vp");
  const auto runs = args.get_size("runs", 1000);
  std::printf("measuring corpora on %s and %s...\n", source.name().c_str(),
              target.name().c_str());
  const auto source_corpus = measure::build_corpus(source, runs, 7);
  const auto target_corpus = measure::build_corpus(target, runs, 7);

  core::CrossSystemConfig config;
  config.repr = parse_repr(args.get("repr", "pearson"));
  config.model = parse_model_kind(args.get("model-kind", "knn"));
  core::CrossSystemPredictor predictor(config);
  predictor.train_all(source_corpus, target_corpus);

  std::ofstream out(path);
  predictor.save(out);
  std::printf("trained %s -> %s transfer model -> %s\n",
              source.name().c_str(), target.name().c_str(), path.c_str());
  return 0;
}

int cmd_predict(const Args& args, const bench::Run* run) {
  const auto path = args.get("model", "model.vp");
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "cannot open model file %s\n", path.c_str());
    return 1;
  }
  auto predictor = core::FewRunsPredictor::load(in);
  const auto bench_name = args.get("benchmark", "specomp/376");
  const auto probes = args.get_size("probes",
                                    predictor.config().n_probe_runs);
  const std::uint64_t base_seed = args.get_size("seed", 99);
  const std::uint64_t seed =
      run == nullptr ? base_seed : run->repetition_seed(base_seed);

  // Probe runs: imported from a CSV of real measurements when --input-csv
  // is given, otherwise freshly simulated (disjoint seed from the corpus).
  const auto& system = measure::SystemModel::by_name(
      args.get("system", "intel"));
  const auto runs_data =
      args.has("input-csv")
          ? measure::load_runs(system, args.get("input-csv", ""))
          : measure::measure_benchmark(
                measure::benchmark_index(bench_name), system,
                std::max<std::size_t>(probes, 1), stable_hash("probe") ^ seed);
  std::vector<std::size_t> idx(runs_data.run_count());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;

  Rng rng(seed);
  const auto predicted =
      predictor.predict_distribution(runs_data, idx, 2000, rng);
  const auto pm = stats::compute_moments(predicted);
  std::printf("%s predicted from %zu runs: sd=%.4f skew=%+.2f kurt=%.2f "
              "p99=%.4f\n",
              bench_name.c_str(), probes, pm.stddev, pm.skewness,
              pm.kurtosis, stats::quantile(predicted, 0.99));

  // Truth comparison (available because the "measurement" is simulated).
  const auto truth = measure::measure_benchmark(
      measure::benchmark_index(bench_name), system, 1000, 7);
  const auto measured = truth.relative_times();
  const stats::PairScores scores = obs::record_prediction_scores(
      {bench_name, system.name(), core::to_string(predictor.config().repr),
       core::to_string(predictor.config().model), "", ""},
      measured, predicted);
  std::printf("KS vs 1000-run measurement: %.3f\n", scores.ks);
  double lo;
  double hi;
  io::plot_range(measured, predicted, lo, hi);
  std::printf("%s", io::density_overlay(measured, predicted, lo, hi).c_str());

  if (args.has("svg")) {
    io::SvgFigure figure("Predicted vs measured: " + bench_name,
                         "relative time", "density");
    figure.add_density(measured, "measured", "#1f77b4", true);
    figure.add_density(predicted, "predicted", "#d62728", false);
    figure.save(args.get("svg", "fig.svg"));
    std::printf("wrote %s\n", args.get("svg", "fig.svg").c_str());
  }
  return 0;
}

int cmd_evaluate(const Args& args, const bench::Run* run) {
  const auto& system = measure::SystemModel::by_name(args.get("system",
                                                              "intel"));
  const auto corpus =
      measure::build_corpus(system, args.get_size("runs", 500), 7);
  core::FewRunsConfig config;
  config.repr = parse_repr(args.get("repr", "pearson"));
  config.model = parse_model_kind(args.get("model-kind", "knn"));
  config.n_probe_runs = args.get_size("probes", 10);
  core::EvalOptions options;
  const std::uint64_t base_seed = args.get_size("seed", options.seed);
  options.seed = run == nullptr ? base_seed : run->repetition_seed(base_seed);
  options.quality_repr = core::to_string(config.repr);
  options.quality_model = core::to_string(config.model);
  const auto result = core::evaluate_few_runs(corpus, config, options);
  std::printf("LOGO evaluation on %s (%s + %s, %zu probes): %s\n",
              system.name().c_str(), core::to_string(config.repr).c_str(),
              core::to_string(config.model).c_str(), config.n_probe_runs,
              result.summary().to_string().c_str());
  return 0;
}

int cmd_tune(const Args& args, const bench::Run* run) {
  const auto& system = measure::SystemModel::by_name(args.get("system",
                                                              "intel"));
  const auto bench_name = args.get("benchmark", "parsec/streamcluster");
  const std::size_t target = measure::benchmark_index(bench_name);
  const std::size_t runs = args.get_size("runs", 300);
  const std::uint64_t base_seed = args.get_size("seed", 7);
  const std::uint64_t seed =
      run == nullptr ? base_seed : run->repetition_seed(base_seed);

  // Training corpus: a sampled config subset crossed with a sampled
  // benchmark subset that never contains the tuning target (the surrogate
  // must generalize to it from its neutral-config probes alone).
  const auto grid = measure::SystemConfig::grid();
  const auto train_configs = measure::sample_configs(
      grid, std::min(args.get_size("train-configs", 12), grid.size()),
      base_seed);
  std::vector<std::size_t> others;
  for (std::size_t b = 0; b < measure::benchmark_table().size(); ++b) {
    if (b != target) others.push_back(b);
  }
  Rng bench_rng(seed_combine(base_seed, stable_hash("tune-benchmarks")));
  const auto picks = core::choose_run_indices(
      others.size(),
      std::min(args.get_size("train-benchmarks", 16), others.size()),
      bench_rng);
  std::vector<std::size_t> train_benchmarks;
  for (const std::size_t p : picks) train_benchmarks.push_back(others[p]);

  std::printf("measuring %zu configs x %zu benchmarks on %s...\n",
              train_configs.size(), train_benchmarks.size(),
              system.name().c_str());
  const auto corpus = measure::build_config_corpus(
      system, train_configs, train_benchmarks, runs, base_seed);

  core::ConfigAwareConfig pconfig;
  pconfig.repr = parse_repr(args.get("repr", "pearson"));
  if (args.has("model-kind")) {
    pconfig.model = parse_model_kind(args.get("model-kind", ""));
  }
  pconfig.n_probe_runs = args.get_size("probes", 10);
  core::ConfigAwarePredictor predictor(pconfig);
  predictor.train_all(corpus);

  // The application's probe runs under the deployed (neutral) config.
  const auto probe = measure::measure_benchmark(
      target, system, std::max<std::size_t>(pconfig.n_probe_runs, 1),
      stable_hash("probe") ^ seed);
  std::vector<std::size_t> idx(probe.run_count());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;

  tune::TunerConfig tconfig;
  tconfig.measure_budget = args.get_size("budget", tconfig.measure_budget);
  tconfig.surrogate_top = args.get_size("top", tconfig.surrogate_top);
  tconfig.finalists = args.get_size("finalists", tconfig.finalists);
  tconfig.seed = seed;
  const auto result = tune::tune_config(predictor, system, target, probe,
                                        idx, grid, tconfig);

  // Leaderboard: every candidate the tuner spent measurements on, by
  // measured variability. Both columns are the same quantity — the
  // relative standard deviation (tune::variability_objective) — predicted
  // by the surrogate vs. measured; the selection below minimizes exactly
  // the printed meas_sd column.
  io::TextTable table({"config", "pred_sd", "meas_sd", "runs",
                       "finalist"});
  std::vector<std::size_t> measured_order;
  for (std::size_t i = 0; i < result.candidates.size(); ++i) {
    if (result.candidates[i].runs_spent > 0) measured_order.push_back(i);
  }
  std::sort(measured_order.begin(), measured_order.end(),
            [&](std::size_t a, std::size_t b) {
              return result.candidates[a].measured <
                     result.candidates[b].measured;
            });
  for (const std::size_t i : measured_order) {
    const auto& cand = result.candidates[i];
    table.add_row({cand.config.name(), format_fixed(cand.predicted, 4),
                   format_fixed(cand.measured, 4),
                   std::to_string(cand.runs_spent),
                   cand.finalist ? "yes" : ""});
  }
  std::printf("%s", table.render().c_str());
  const auto& winner = result.winner();
  std::printf("selected %s (measured relative sd %.4f, %zu/%zu runs "
              "spent)\n",
              winner.config.name().c_str(), winner.measured,
              result.runs_spent, tconfig.measure_budget);

  if (args.has("exhaustive")) {
    const auto exhaustive = tune::exhaustive_search(
        system, target, grid, runs, base_seed);
    constexpr std::size_t kTruthSamples = 20000;
    const double optimal = tune::true_objective(
        system, target, grid[exhaustive.best], kTruthSamples, base_seed);
    const double tuned = tune::true_objective(
        system, target, winner.config, kTruthSamples, base_seed);
    const double regret = tuned / optimal - 1.0;
    const double budget_fraction =
        static_cast<double>(result.runs_spent) /
        static_cast<double>(exhaustive.runs_spent);
    std::printf("exhaustive optimum %s (true relative sd %.4f, %zu runs)\n",
                grid[exhaustive.best].name().c_str(), optimal,
                exhaustive.runs_spent);
    std::printf("tuner regret %+.2f%% at %.1f%% of the exhaustive budget\n",
                100.0 * regret, 100.0 * budget_fraction);
    obs::QualityCellKey key;
    key.app = bench_name;
    key.systems = system.name();
    key.repr = core::to_string(pconfig.repr);
    key.model = core::to_string(pconfig.model);
    key.metric = "tune_regret";
    obs::QualityRecorder::instance().record(key, regret);
    key.metric = "tune_budget_fraction";
    obs::QualityRecorder::instance().record(key, budget_fraction);
  }
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: varpred <command> [--key=value ...]\n"
      "commands:\n"
      "  systems                         list the simulated systems\n"
      "  benchmarks                      list the Table I benchmarks\n"
      "  metrics   --system=S            list a system's perf metrics\n"
      "  measure   --system=S --benchmark=B --runs=N [--csv=F]\n"
      "  train     --system=S --runs=N --model=F [--repr=R] [--model-kind=M]\n"
      "  train-x   --source=S --target=T --runs=N --model=F\n"
      "  predict   --model=F --benchmark=B [--probes=N] [--svg=F]\n"
      "            [--input-csv=F]  use externally measured runs\n"
      "  evaluate  --system=S [--repr=R] [--model-kind=M] [--runs=N]\n"
      "  tune      --system=S --benchmark=B [--budget=N] [--top=N]\n"
      "            [--finalists=N] [--train-configs=N]\n"
      "            [--train-benchmarks=N] [--runs=N] [--probes=N]\n"
      "            [--exhaustive]  also measure every config, report regret\n"
      "telemetry (any of these runs the command under the bench harness and\n"
      "emits the run document BENCH_cli_<command>.json):\n"
      "  --obs=off|summary|trace --obs-out=F --repeat=N\n");
}

/// One command invocation. `run` is non-null only under the telemetry
/// harness; commands use it to derive per-repetition seeds so --repeat=N
/// yields N seed-varied quality samples per cell.
int dispatch(const Args& args, const bench::Run* run) {
  if (args.command == "systems") return cmd_systems();
  if (args.command == "benchmarks") return cmd_benchmarks();
  if (args.command == "metrics") return cmd_metrics(args);
  if (args.command == "measure") return cmd_measure(args);
  if (args.command == "train") return cmd_train(args);
  if (args.command == "train-x") return cmd_train_x(args);
  if (args.command == "predict") return cmd_predict(args, run);
  if (args.command == "evaluate") return cmd_evaluate(args, run);
  if (args.command == "tune") return cmd_tune(args, run);
  usage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = parse_args(argc, argv);
  try {
    if (!args.telemetry) return dispatch(args, nullptr);
    if (args.command.empty()) {
      usage();
      return 2;
    }
    // Mirror the CLI's own --runs into the telemetry provenance (the
    // harness default would otherwise be reported).
    args.harness.runs = args.get_size("runs", args.harness.runs);
    int rc = 0;
    const int status = bench::run_repeated(
        "cli_" + args.command, args.harness, [&](bench::Run& run) {
          const int r = dispatch(args, &run);
          if (r != 0) rc = r;
        });
    return status != 0 ? status : rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
