// Leave-one-group-out (LOGO) workloads: the paper's evaluation (figs 4 and
// 7) as a user runs it.
//
//   logo_trees  tree learners at 300 runs per benchmark, on a fixed sample
//               of the LOGO folds (each fold still trains on every other
//               benchmark): UC1 PearsonRnd+RF and +XGBoost, UC2 (amd ->
//               intel) Histogram+RF and +XGBoost. Tree fitting dominates.
//   logo_knn    kNN over all three representations and both use cases at
//               1000 runs, every fold, swept over evaluation seeds. No
//               trees: profile, predict, reconstruct and KS scoring show.
//
// As in the repository's figure harnesses, the corpora are seed-stable
// (corpus seed 7) and --seed picks the evaluation seeds (probe runs and
// reconstruction draws): every seed then fits the same trees, so the
// timing varies with the code, not with the tree shapes a corpus draw gives.
//
// The untraced body calls the evaluator's public entry points. The traced
// body assembles the same fold loop from the layer calls and must give
// bit-identical fold KS.
#include <cmath>
#include <cstring>
#include <numeric>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/evalcache.hpp"
#include "core/evaluator.hpp"
#include "core/profile.hpp"
#include "measure/corpus.hpp"
#include "stats/ks.hpp"

namespace perfbench {
namespace {

using namespace varpred;

struct Cell {
  std::string name;  // <use case>.<repr>.<model>
  bool cross = false;  // use case 2: amd -> intel
  core::ReprKind repr = core::ReprKind::kPearson;
  core::ModelKind model = core::ModelKind::kKnn;
};

struct LogoSpec {
  std::vector<Cell> cells;
  std::size_t runs = 0;             // measured runs per benchmark
  std::vector<std::size_t> folds;   // held-out benchmarks; empty = all
  std::size_t seed_cycle = 1;       // distinct evaluation seeds swept
};

constexpr std::uint64_t kCorpusSeed = 7;

struct Corpora {
  measure::Corpus intel;  // UC1 corpus, UC2 target
  measure::Corpus amd;    // UC2 source
};

core::FewRunsConfig few_runs_config(const Cell& cell) {
  core::FewRunsConfig config;
  config.repr = cell.repr;
  config.model = cell.model;
  return config;
}

core::CrossSystemConfig cross_config(const Cell& cell) {
  core::CrossSystemConfig config;
  config.repr = cell.repr;
  config.model = cell.model;
  return config;
}

std::vector<std::size_t> all_but(std::size_t n, std::size_t held_out) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (i != held_out) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> folds_of(const LogoSpec& spec, std::size_t n) {
  if (!spec.folds.empty()) return spec.folds;
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

// Untraced: the evaluator's entry points. Every fold runs through
// evaluate_*; a fold sample runs through the evaluator's per-fold calls
// with the fold-shared cache evaluate_* would build.
std::vector<double> eval_cell(const Corpora& c, const Cell& cell,
                              const LogoSpec& spec, std::uint64_t eval_seed) {
  core::EvalOptions options;
  options.seed = eval_seed;
  if (spec.folds.empty()) {
    return cell.cross ? core::evaluate_cross_system(c.amd, c.intel,
                                                    cross_config(cell), options)
                            .ks
                      : core::evaluate_few_runs(c.intel,
                                                few_runs_config(cell), options)
                            .ks;
  }
  std::vector<double> ks(spec.folds.size());
  if (cell.cross) {
    const auto config = cross_config(cell);
    const auto cache = core::CrossSystemEvalCache::build(c.amd, c.intel, config);
    parallel_for(spec.folds.size(), [&](std::size_t i) {
      const std::size_t b = spec.folds[i];
      const auto predicted = core::predict_held_out_cross_system(
          c.amd, c.intel, b, config, options, &cache);
      ks[i] = stats::ks_statistic(c.intel.benchmarks[b].relative_times(),
                                  predicted);
    });
  } else {
    const auto config = few_runs_config(cell);
    const auto cache = core::FewRunsEvalCache::build(c.intel, config);
    parallel_for(spec.folds.size(), [&](std::size_t i) {
      const std::size_t b = spec.folds[i];
      const auto predicted = core::predict_held_out_few_runs(
          c.intel, b, config, options, &cache);
      ks[i] = stats::ks_statistic(c.intel.benchmarks[b].relative_times(),
                                  predicted);
    });
  }
  return ks;
}

// Traced: the same folds assembled from the layer calls. The RNG streams
// are the evaluator's: probe runs from (seed, 0xBEEF0000 + b), use case 1
// reconstruction from (seed, 0xD15717 + b), use case 2 reconstruction from
// (seed, 0xC105500 + b).
std::vector<double> eval_cell_traced(const Corpora& c, const Cell& cell,
                                     const LogoSpec& spec,
                                     std::uint64_t eval_seed,
                                     LayerClock& clock) {
  const core::EvalOptions options;  // n_reconstruct
  const std::size_t n = c.intel.benchmarks.size();
  const auto folds = folds_of(spec, n);
  std::vector<double> ks(folds.size());
  const auto finish = [&](std::size_t i, const core::DistributionRepr& repr,
                          std::span<const double> encoded, Rng& rng) {
    const std::size_t b = folds[i];
    const auto predicted = clock.time(Layer::kReconstruct, [&] {
      return repr.reconstruct(encoded, options.n_reconstruct, rng);
    });
    clock.samples += predicted.size();
    const auto measured = c.intel.benchmarks[b].relative_times();
    ks[i] = clock.time(Layer::kScore, [&] {
      return stats::ks_statistic(measured, predicted);
    });
    ++clock.scores;
  };
  if (cell.cross) {
    const auto config = cross_config(cell);
    const auto cache = clock.time(Layer::kCache, [&] {
      return core::CrossSystemEvalCache::build(c.amd, c.intel, config);
    });
    parallel_for(folds.size(), [&](std::size_t i) {
      const std::size_t b = folds[i];
      core::CrossSystemPredictor predictor(config);
      clock.time(Layer::kFit, [&] {
        predictor.train(c.amd, c.intel, all_but(n, b), &cache);
      });
      ++clock.fits;
      const auto features = clock.time(Layer::kProfile, [&] {
        return predictor.make_features(*predictor.source_system(),
                                       c.amd.benchmarks[b]);
      });
      const auto encoded = clock.time(
          Layer::kPredict, [&] { return predictor.predict_encoded(features); });
      Rng rng(seed_combine(eval_seed, 0xC105500ULL + b));
      finish(i, predictor.repr(), encoded, rng);
    });
  } else {
    const auto config = few_runs_config(cell);
    const auto cache = clock.time(Layer::kCache, [&] {
      return core::FewRunsEvalCache::build(c.intel, config);
    });
    parallel_for(folds.size(), [&](std::size_t i) {
      const std::size_t b = folds[i];
      core::FewRunsPredictor predictor(config);
      clock.time(Layer::kFit, [&] {
        predictor.train(c.intel, all_but(n, b), &cache);
      });
      ++clock.fits;
      const auto& runs = c.intel.benchmarks[b];
      Rng probe_rng(seed_combine(eval_seed, 0xBEEF0000ULL + b));
      const auto probes = core::choose_run_indices(
          runs.run_count(), std::min(config.n_probe_runs, runs.run_count()),
          probe_rng);
      const auto features = clock.time(Layer::kProfile, [&] {
        return core::build_profile(*c.intel.system, runs, probes,
                                   config.profile);
      });
      const auto encoded = clock.time(
          Layer::kPredict, [&] { return predictor.predict_encoded(features); });
      Rng rng(seed_combine(eval_seed, 0xD15717ULL + b));
      finish(i, predictor.repr(), encoded, rng);
    });
  }
  return ks;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double mean_of(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

Result run_logo(const Options& opts, const LogoSpec& spec) {
  Result result;
  LayerClock setup_clock;
  bool needs_amd = false;
  for (const Cell& cell : spec.cells) needs_amd = needs_amd || cell.cross;

  Corpora corpora;
  const std::vector<double> setup_s = repeated_setup(
      corpora, opts.trace ? &setup_clock : nullptr,
      [&](Corpora& c, LayerClock* clock) {
        c.intel = timed(clock, Layer::kSimulate, [&] {
          return measure::build_corpus(measure::SystemModel::intel(),
                                       spec.runs, kCorpusSeed);
        });
        if (needs_amd) {
          c.amd = timed(clock, Layer::kSimulate, [&] {
            return measure::build_corpus(measure::SystemModel::amd(),
                                         spec.runs, kCorpusSeed);
          });
        }
        if (clock != nullptr) {
          clock->runs += (needs_amd ? 2 : 1) * spec.runs *
                         measure::benchmark_table().size();
        }
      });

  const auto eval_seed = [&](std::size_t slot) {
    return seed_combine(opts.seed, 0x5EED0000ULL + slot);
  };
  // seen[slot][cell]: fold KS of the first pass at that evaluation seed.
  // Every later pass at the same seed must repeat it bit for bit.
  std::vector<std::vector<std::vector<double>>> seen(
      spec.seed_cycle, std::vector<std::vector<double>>(spec.cells.size()));
  const auto check = [&](std::size_t slot, std::size_t c,
                         const std::vector<double>& ks) {
    auto& first = seen[slot][c];
    if (first.empty()) first = ks;
    const bool same = same_bits(first, ks);
    for (const double v : ks) result.op(same && std::isfinite(v));
  };

  std::vector<double> pass_s;
  const double budget = body_seconds(opts);
  auto start = Clock::now();
  for (std::size_t pass = 0;
       another_pass(pass_s, spec.seed_cycle, start, budget); ++pass) {
    const std::size_t slot = pass % spec.seed_cycle;
    const auto t0 = Clock::now();
    std::vector<std::vector<double>> ks;
    for (const Cell& cell : spec.cells) {
      ks.push_back(eval_cell(corpora, cell, spec, eval_seed(slot)));
    }
    pass_s.push_back(seconds_since(t0));
    for (std::size_t c = 0; c < spec.cells.size(); ++c) check(slot, c, ks[c]);
  }

  // ks_mean: over the swept seeds, of the mean over cells of each cell's
  // mean fold KS.
  std::vector<double> per_seed;
  for (const auto& cells : seen) {
    std::vector<double> cell_means;
    for (const auto& ks : cells) cell_means.push_back(mean_of(ks));
    per_seed.push_back(mean_of(cell_means));
  }
  const double ks_mean = mean_of(per_seed);
  for (std::size_t c = 0; c < spec.cells.size(); ++c) {
    result.scores.push_back({"ks." + spec.cells[c].name, seen[0][c]});
  }
  result.scores.push_back({"ks_mean", {ks_mean}});
  std::printf("ks_mean %.6f over %zu cells x %zu evaluation seeds\n", ks_mean,
              spec.cells.size(), spec.seed_cycle);

  const double wall_s = median_of(pass_s);
  if (!opts.trace) {
    result.timings = {{"setup_s", setup_s}, {"wall_s", pass_s}};
    std::printf("passes %zu, pass p50 %.4f s, slowest %.4f s\n",
                pass_s.size(), wall_s, percentile_of(pass_s, 1.0));
    return result;
  }

  // Traced body: same cells, same seeds, layer by layer.
  LayerClock clock;
  std::vector<double> cell_s(spec.cells.size(), 0.0);
  std::vector<double> traced_s;
  const PoolWindow pool;
  start = Clock::now();
  for (std::size_t pass = 0;
       another_pass(traced_s, spec.seed_cycle, start, budget); ++pass) {
    const std::size_t slot = pass % spec.seed_cycle;
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < spec.cells.size(); ++c) {
      const auto tc = Clock::now();
      const auto ks = eval_cell_traced(corpora, spec.cells[c], spec,
                                       eval_seed(slot), clock);
      cell_s[c] += seconds_since(tc);
      if (!same_bits(ks, seen[slot][c])) {
        std::printf("TRACE MISMATCH: %s at seed slot %zu\n",
                    spec.cells[c].name.c_str(), slot);
      }
      check(slot, c, ks);
    }
    traced_s.push_back(seconds_since(t0));
  }
  const std::size_t passes = traced_s.size();
  report_layers(setup_clock, clock, passes, result);
  pool.report(passes, result);
  for (std::size_t c = 0; c < spec.cells.size(); ++c) {
    result.metric("cell." + spec.cells[c].name + "_s",
                  cell_s[c] / static_cast<double>(passes), "s");
  }
  result.metric("stats.ks_mean", ks_mean, "ks");
  result.metric("trace.overhead_s", median_of(traced_s) - wall_s, "s");
  return result;
}

}  // namespace

Result run_logo_trees(const Options& opts) {
  using core::ModelKind;
  using core::ReprKind;
  LogoSpec spec;
  spec.cells = {
      {"uc1.pearson.rf", false, ReprKind::kPearson, ModelKind::kRandomForest},
      {"uc1.pearson.xgboost", false, ReprKind::kPearson, ModelKind::kXgBoost},
      {"uc2.histogram.rf", true, ReprKind::kHistogram,
       ModelKind::kRandomForest},
      {"uc2.histogram.xgboost", true, ReprKind::kHistogram,
       ModelKind::kXgBoost},
  };
  spec.runs = 300;
  // Four folds spread evenly over the suite-ordered benchmark table.
  const std::size_t n = measure::benchmark_table().size();
  constexpr std::size_t kFolds = 4;
  for (std::size_t i = 0; i < kFolds; ++i) {
    spec.folds.push_back((2 * i + 1) * n / (2 * kFolds));
  }
  spec.seed_cycle = 1;
  return run_logo(opts, spec);
}

Result run_logo_knn(const Options& opts) {
  LogoSpec spec;
  for (const bool cross : {false, true}) {
    for (const core::ReprKind repr : core::all_repr_kinds()) {
      std::string name = cross ? "uc2." : "uc1.";
      name += repr == core::ReprKind::kHistogram ? "histogram"
              : repr == core::ReprKind::kMaxEnt  ? "maxent"
                                                 : "pearson";
      spec.cells.push_back({name + ".knn", cross, repr, core::ModelKind::kKnn});
    }
  }
  spec.runs = 1000;
  spec.seed_cycle = 16;
  return run_logo(opts, spec);
}

}  // namespace perfbench
