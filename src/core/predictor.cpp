#include "core/predictor.hpp"

#include "common/check.hpp"
#include "core/evalcache.hpp"
#include "obs/obs.hpp"

namespace varpred::core {

FewRunsPredictor::FewRunsPredictor(FewRunsConfig config)
    : config_(config), repr_(DistributionRepr::create(config.repr)) {
  VARPRED_CHECK_ARG(config_.n_probe_runs >= 1, "need >= 1 probe run");
  VARPRED_CHECK_ARG(config_.train_replicates >= 1, "need >= 1 replicate");
}

namespace {

TrainingSet training_set(const measure::Corpus& corpus,
                         std::span<const std::size_t> train_benchmarks,
                         const FewRunsConfig& config,
                         const DistributionRepr& repr,
                         const FewRunsEvalCache* cache) {
  VARPRED_CHECK_ARG(!train_benchmarks.empty(), "no training benchmarks");
  TrainingSet set;
  if (cache != nullptr) {
    // Fold-shared artifacts: gather the precomputed rows — byte-identical
    // to few_runs_rows over this subset, since its RNG streams are
    // subset-independent — and derive the fold's sorted-column orders by
    // filtering.
    VARPRED_CHECK_ARG(cache->targets.size() == corpus.benchmarks.size() &&
                          cache->replicates == config.train_replicates,
                      "evaluation cache does not match corpus/config");
    check_cache_shape(cache->features, cache->targets,
                      corpus.system->metric_count() *
                          config.profile.features_per_metric(),
                      repr.dim());
    const auto rows = cache->rows_for(train_benchmarks);
    set.x = cache->features.gather_rows(rows);
    for (const std::size_t b : train_benchmarks) {
      for (std::size_t rep = 0; rep < cache->replicates; ++rep) {
        set.y.push_row(cache->targets[b]);
      }
    }
    if (cache->presorted != nullptr) {
      set.presorted = cache->presorted->filtered(rows);
    }
  } else {
    auto rows = few_runs_rows(corpus, train_benchmarks, config, repr);
    set.x = std::move(rows.features);
    for (const auto& target : rows.targets) {
      for (std::size_t rep = 0; rep < config.train_replicates; ++rep) {
        set.y.push_row(target);
      }
    }
  }
  VARPRED_OBS_COUNT("predictor.trainings", 1);
  VARPRED_OBS_COUNT("predictor.train_rows", set.x.rows());
  return set;
}

std::unique_ptr<ml::Regressor> new_model(const FewRunsConfig& config) {
  return config.model_factory ? config.model_factory()
                              : make_model(config.model, config.seed);
}

}  // namespace

void FewRunsPredictor::train(const measure::Corpus& corpus,
                             std::span<const std::size_t> train_benchmarks,
                             const FewRunsEvalCache* cache) {
  obs::Span span("predictor.train");
  const auto set =
      training_set(corpus, train_benchmarks, config_, *repr_, cache);
  system_ = corpus.system;
  model_ = new_model(config_);
  model_->fit(set.x, set.y, set.presorted_or_null());
}

std::vector<double> FewRunsPredictor::fit_predict_encoded(
    const measure::Corpus& corpus,
    std::span<const std::size_t> train_benchmarks,
    std::span<const double> profile_features,
    const FewRunsEvalCache* cache) const {
  obs::Span span("predictor.fit_predict");
  VARPRED_OBS_COUNT("predictor.predictions", 1);
  const auto set =
      training_set(corpus, train_benchmarks, config_, *repr_, cache);
  return new_model(config_)->fit_predict(set.x, set.y,
                                         set.presorted_or_null(),
                                         profile_features);
}

void FewRunsPredictor::train_all(const measure::Corpus& corpus) {
  std::vector<std::size_t> all(corpus.benchmarks.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  train(corpus, all);
}

std::vector<double> FewRunsPredictor::predict_encoded(
    std::span<const double> profile_features) const {
  VARPRED_CHECK(trained(), "predict before train");
  return model_->predict(profile_features);
}

std::vector<double> FewRunsPredictor::predict_distribution(
    const measure::BenchmarkRuns& runs,
    std::span<const std::size_t> probe_runs, std::size_t n_samples,
    Rng& rng) const {
  VARPRED_CHECK(system_ != nullptr, "predict before train");
  obs::Span span("predictor.predict");
  VARPRED_OBS_COUNT("predictor.predictions", 1);
  const auto features =
      build_profile(*system_, runs, probe_runs, config_.profile);
  const auto encoded = predict_encoded(features);
  return repr_->reconstruct(encoded, n_samples, rng);
}

}  // namespace varpred::core
