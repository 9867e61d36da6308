// Use case #1 (paper section III-A1): predicting an application's full
// performance distribution on a system from a few runs of the application on
// that same system.
//
// The predictor is system-specific. Training data comes from a measurement
// corpus: for every training benchmark, the feature vector is a profile
// built from `n_probe_runs` runs (replicated a few times with different run
// subsets so the model sees the sampling noise it will face at prediction
// time) and the target is the encoded relative-time distribution of all
// measured runs.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>

#include "core/distrepr.hpp"
#include "core/models.hpp"
#include "core/profile.hpp"
#include "measure/corpus.hpp"

namespace varpred::core {

struct FewRunsEvalCache;

struct FewRunsConfig {
  std::size_t n_probe_runs = 10;   ///< runs available at prediction time
  std::size_t train_replicates = 2;  ///< probe resamples per train benchmark
  ReprKind repr = ReprKind::kPearson;
  ModelKind model = ModelKind::kKnn;
  ProfileOptions profile;
  std::uint64_t seed = 1001;
  /// When set, overrides `model`: the factory is invoked per training to
  /// build the regressor (used by the ablation benches, e.g. to sweep the
  /// kNN distance metric).
  std::function<std::unique_ptr<ml::Regressor>()> model_factory;
};

class FewRunsPredictor {
 public:
  explicit FewRunsPredictor(FewRunsConfig config = {});

  const FewRunsConfig& config() const { return config_; }
  const DistributionRepr& repr() const { return *repr_; }

  /// Trains on the benchmarks selected by `train_benchmarks` (indices into
  /// corpus.benchmarks). Pass all indices for a production model; the
  /// evaluator passes leave-one-out folds.
  ///
  /// The rows come from few_runs_rows (core/evalcache.hpp). `cache`
  /// (optional) supplies the fold-shared artifacts built by
  /// FewRunsEvalCache::build for this exact (corpus, config) pair; training
  /// then gathers its rows from the cache — byte-identical to rebuilding
  /// them — and hands a tree learner presorted column orders. With a cache,
  /// `train_benchmarks` must be strictly ascending (leave-one-out folds
  /// are).
  void train(const measure::Corpus& corpus,
             std::span<const std::size_t> train_benchmarks,
             const FewRunsEvalCache* cache = nullptr);

  /// Convenience: trains on every benchmark in the corpus.
  void train_all(const measure::Corpus& corpus);

  bool trained() const { return model_ != nullptr && model_->trained(); }

  /// One leave-one-out fold in one call: trains on `train_benchmarks`
  /// exactly as train() does and returns the encoded prediction for
  /// `profile_features`, through ml::Regressor::fit_predict, so a random
  /// forest grows only the query's path in each tree. Bit for bit
  /// train(corpus, train_benchmarks, cache) then
  /// predict_encoded(profile_features). Keeps no model: this predictor's
  /// own state is untouched.
  std::vector<double> fit_predict_encoded(
      const measure::Corpus& corpus,
      std::span<const std::size_t> train_benchmarks,
      std::span<const double> profile_features,
      const FewRunsEvalCache* cache = nullptr) const;

  /// Predicts the encoded distribution from a prepared profile vector.
  std::vector<double> predict_encoded(
      std::span<const double> profile_features) const;

  /// End-to-end: builds the profile from the probe runs selected by
  /// `probe_runs` of `runs`, predicts, and reconstructs `n_samples`
  /// relative-time samples.
  std::vector<double> predict_distribution(
      const measure::BenchmarkRuns& runs,
      std::span<const std::size_t> probe_runs, std::size_t n_samples,
      Rng& rng) const;

  /// Serializes the trained predictor (configuration + model). Predictors
  /// built with a custom model_factory cannot be round-tripped through the
  /// ModelKind enum but serialize their trained model just the same.
  void save(std::ostream& out) const;
  static FewRunsPredictor load(std::istream& in);

 private:
  FewRunsConfig config_;
  std::unique_ptr<DistributionRepr> repr_;
  std::unique_ptr<ml::Regressor> model_;
  const measure::SystemModel* system_ = nullptr;  ///< set at train time
};

}  // namespace varpred::core
