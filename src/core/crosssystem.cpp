#include "core/crosssystem.hpp"

#include <optional>

#include "common/check.hpp"
#include "core/evalcache.hpp"
#include "obs/obs.hpp"

namespace varpred::core {

std::vector<double> cross_system_features(const measure::SystemModel& system,
                                          const measure::BenchmarkRuns& runs,
                                          const ProfileOptions& profile,
                                          const DistributionRepr& repr) {
  auto features = build_full_profile(system, runs, profile);
  const auto encoded = repr.encode(runs.relative_times());
  features.insert(features.end(), encoded.begin(), encoded.end());
  return features;
}

CrossSystemPredictor::CrossSystemPredictor(CrossSystemConfig config)
    : config_(config), repr_(DistributionRepr::create(config.repr)) {}

std::vector<double> CrossSystemPredictor::make_features(
    const measure::SystemModel& system,
    const measure::BenchmarkRuns& source_runs) const {
  return cross_system_features(system, source_runs, config_.profile, *repr_);
}

void CrossSystemPredictor::train(
    const measure::Corpus& source, const measure::Corpus& target,
    std::span<const std::size_t> train_benchmarks,
    const CrossSystemEvalCache* cache) {
  VARPRED_CHECK_ARG(!train_benchmarks.empty(), "no training benchmarks");
  VARPRED_CHECK_ARG(source.benchmarks.size() == target.benchmarks.size(),
                    "corpora must cover the same benchmark set");
  obs::Span span("xsys.train");
  VARPRED_OBS_COUNT("xsys.trainings", 1);
  source_system_ = source.system;
  ml::Matrix x;
  ml::Matrix y;
  std::optional<ml::SortedColumns> presorted;
  if (cache != nullptr) {
    // Fold-shared artifacts (feature rows and targets are pure functions of
    // the corpora, so gathering is byte-identical to building them).
    VARPRED_CHECK_ARG(cache->targets.size() == source.benchmarks.size(),
                      "evaluation cache does not match corpus");
    const auto rows = cache->rows_for(train_benchmarks);
    x = cache->features.gather_rows(rows);
    for (const std::size_t b : train_benchmarks) y.push_row(cache->targets[b]);
    if (cache->presorted != nullptr) {
      presorted = cache->presorted->filtered(rows);
    }
  } else {
    auto rows =
        cross_system_rows(source, target, train_benchmarks, config_, *repr_);
    x = std::move(rows.features);
    for (const auto& t : rows.targets) y.push_row(t);
  }
  model_ = config_.model_factory ? config_.model_factory()
                                 : make_model(config_.model, config_.seed);
  model_->fit(x, y, presorted ? &*presorted : nullptr);
}

void CrossSystemPredictor::train_all(const measure::Corpus& source,
                                     const measure::Corpus& target) {
  std::vector<std::size_t> all(source.benchmarks.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  train(source, target, all);
}

std::vector<double> CrossSystemPredictor::predict_encoded(
    std::span<const double> features) const {
  VARPRED_CHECK(trained(), "predict before train");
  return model_->predict(features);
}

std::vector<double> CrossSystemPredictor::predict_distribution(
    const measure::BenchmarkRuns& source_runs, std::size_t n_samples,
    Rng& rng) const {
  VARPRED_CHECK(source_system_ != nullptr, "predict before train");
  obs::Span span("xsys.predict");
  VARPRED_OBS_COUNT("xsys.predictions", 1);
  const auto features = make_features(*source_system_, source_runs);
  const auto encoded = predict_encoded(features);
  return repr_->reconstruct(encoded, n_samples, rng);
}

}  // namespace varpred::core
