#include "core/configpred.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "core/evaluator.hpp"
#include "obs/obs.hpp"
#include "obs/quality.hpp"
#include "stats/ecdf.hpp"

namespace varpred::core {
namespace {

// Deterministic per-(config, benchmark) row stream. Hanging the seed off
// the config *name* (not its corpus index) keeps rows identical across
// training subsets and across corpora that sample configs differently.
Rng cell_rng(const ConfigAwareConfig& config, const measure::ConfigCorpus& c,
             std::size_t config_index, std::size_t b) {
  return Rng(seed_combine(
      config.seed,
      seed_combine(stable_hash(c.system->name()) ^ (b * 0x9E37ULL + 17),
                   stable_hash(c.configs[config_index].name()))));
}

}  // namespace

ConfigAwarePredictor::ConfigAwarePredictor(ConfigAwareConfig config)
    : config_(config), repr_(DistributionRepr::create(config.repr)) {
  VARPRED_CHECK_ARG(config_.n_probe_runs >= 1, "need >= 1 probe run");
  VARPRED_CHECK_ARG(config_.train_replicates >= 1, "need >= 1 replicate");
}

void ConfigAwarePredictor::train(const measure::ConfigCorpus& corpus,
                                 std::span<const std::size_t> train_configs) {
  VARPRED_CHECK_ARG(!train_configs.empty(), "no training configs");
  VARPRED_CHECK_ARG(corpus.benchmark_count() >= 1, "empty config corpus");
  obs::Span span("configpred.train");
  system_ = corpus.system;
  for (const std::size_t c : train_configs) {
    VARPRED_CHECK_ARG(c < corpus.config_count(), "config index out of range");
  }
  // One pool iteration per (config, benchmark) cell, each writing its
  // target and its replicate rows into the cell's slots; every cell's RNG
  // stream is its own, so the rows do not depend on the worker count.
  const std::size_t n_benchmarks = corpus.benchmark_count();
  const std::size_t replicates = config_.train_replicates;
  const std::size_t n_cells = train_configs.size() * n_benchmarks;
  std::vector<std::vector<double>> targets(n_cells);
  std::vector<std::vector<double>> rows(n_cells * replicates);
  parallel_for(n_cells, [&](std::size_t cell) {
    const std::size_t c = train_configs[cell / n_benchmarks];
    const std::size_t b = cell % n_benchmarks;
    targets[cell] = repr_->encode(corpus.cell_runs[c][b].relative_times());
    // Profiles come from the neutral probe runs -- the only measurements
    // a tuner has before trying a config -- resampled per replicate.
    const auto& probe = corpus.probe_runs[b];
    Rng rng = cell_rng(config_, corpus, c, b);
    const std::size_t probes =
        std::min(config_.n_probe_runs, probe.run_count());
    for (std::size_t rep = 0; rep < replicates; ++rep) {
      const auto idx = choose_run_indices(probe.run_count(), probes, rng);
      auto row = corpus.configs[c].to_features();
      const auto profile =
          build_profile(*corpus.system, probe, idx, config_.profile);
      row.insert(row.end(), profile.begin(), profile.end());
      rows[cell * replicates + rep] = std::move(row);
    }
  });
  ml::Matrix x;
  ml::Matrix y;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    x.push_row(rows[i]);
    y.push_row(targets[i / replicates]);
  }
  model_ = make_model(config_.model, config_.seed);
  model_->fit(x, y);
  VARPRED_OBS_COUNT("configpred.trainings", 1);
  VARPRED_OBS_COUNT("configpred.train_rows", x.rows());
}

void ConfigAwarePredictor::train_all(const measure::ConfigCorpus& corpus) {
  std::vector<std::size_t> all(corpus.config_count());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  train(corpus, all);
}

std::vector<double> ConfigAwarePredictor::predict_encoded(
    const measure::SystemConfig& config,
    std::span<const double> profile_features) const {
  VARPRED_CHECK(trained(), "predict before train");
  auto features = config.to_features();
  features.insert(features.end(), profile_features.begin(),
                  profile_features.end());
  return model_->predict(features);
}

std::vector<double> ConfigAwarePredictor::make_profile(
    const measure::BenchmarkRuns& runs,
    std::span<const std::size_t> probe_runs) const {
  VARPRED_CHECK(system_ != nullptr, "predict before train");
  return build_profile(*system_, runs, probe_runs, config_.profile);
}

std::vector<double> ConfigAwarePredictor::predict_distribution(
    const measure::SystemConfig& config,
    std::span<const double> profile_features, std::size_t n_samples,
    Rng& rng) const {
  obs::Span span("configpred.predict");
  VARPRED_OBS_COUNT("configpred.predictions", 1);
  const auto encoded = predict_encoded(config, profile_features);
  return repr_->reconstruct(encoded, n_samples, rng);
}

std::vector<double> ConfigAwarePredictor::predict_distribution(
    const measure::SystemConfig& config, const measure::BenchmarkRuns& runs,
    std::span<const std::size_t> probe_runs, std::size_t n_samples,
    Rng& rng) const {
  return predict_distribution(config, make_profile(runs, probe_runs),
                              n_samples, rng);
}

ConfigEvalResult evaluate_config_aware(const measure::ConfigCorpus& corpus,
                                       const ConfigAwareConfig& config,
                                       const ConfigEvalOptions& options) {
  const std::size_t n_configs = corpus.config_count();
  const std::size_t n_benchmarks = corpus.benchmark_count();
  VARPRED_CHECK_ARG(n_configs >= 2,
                    "held-out-config evaluation needs >= 2 configs");
  obs::Span span("eval.config_aware", obs::Span::kPoolStats);

  ConfigEvalResult result;
  result.config_names.resize(n_configs);
  result.ks.resize(n_configs);
  const bool record_quality =
      obs::QualityRecorder::enabled() && !options.quality_repr.empty();
  // Per-(held-out config, benchmark) fold scores, recorded as fold medians
  // from the orchestrating thread afterwards (deterministic order).
  std::vector<double> fold_ks(n_configs * n_benchmarks);
  std::vector<double> fold_w1(record_quality ? fold_ks.size() : 0);
  std::vector<double> fold_ov(record_quality ? fold_ks.size() : 0);

  parallel_for(n_configs, [&](std::size_t held_out) {
    obs::Span fold("eval.fold");
    std::vector<std::size_t> train;
    train.reserve(n_configs - 1);
    for (std::size_t c = 0; c < n_configs; ++c) {
      if (c != held_out) train.push_back(c);
    }
    ConfigAwarePredictor predictor(config);
    predictor.train(corpus, train);

    double ks_sum = 0.0;
    for (std::size_t b = 0; b < n_benchmarks; ++b) {
      const auto& probe = corpus.probe_runs[b];
      Rng probe_rng(seed_combine(options.seed,
                                 0xBEEF0000ULL + held_out * 977 + b));
      const auto idx = choose_run_indices(
          probe.run_count(), std::min(config.n_probe_runs, probe.run_count()),
          probe_rng);
      Rng rng(seed_combine(options.seed,
                           0xD15717ULL + held_out * 977 + b));
      const auto predicted = predictor.predict_distribution(
          corpus.configs[held_out], probe, idx, options.n_reconstruct, rng);
      const auto measured = corpus.cell_runs[held_out][b].relative_times();
      const WindowScore score = score_window(measured, predicted);
      const std::size_t f = held_out * n_benchmarks + b;
      fold_ks[f] = score.ks;
      if (record_quality) {
        fold_w1[f] = score.wasserstein1;
        fold_ov[f] = score.overlap;
      }
      ks_sum += score.ks;
    }
    result.config_names[held_out] = corpus.configs[held_out].name();
    result.ks[held_out] = ks_sum / static_cast<double>(n_benchmarks);
  });
  VARPRED_OBS_COUNT("eval.config_aware.folds", n_configs * n_benchmarks);

  if (record_quality) {
    obs::QualityCellKey key;
    key.app = "*";
    key.systems = corpus.system->name();
    key.repr = options.quality_repr;
    key.model = options.quality_model;
    key.context = "heldout-config";
    obs::QualityRecorder& recorder = obs::QualityRecorder::instance();
    key.metric = "ks";
    recorder.record(key, stats::median(fold_ks));
    key.metric = "wasserstein1_normalized";
    recorder.record(key, stats::median(fold_w1));
    key.metric = "overlap";
    recorder.record(key, stats::median(fold_ov));
  }
  return result;
}

}  // namespace varpred::core
