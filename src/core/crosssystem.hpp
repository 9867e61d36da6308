// Use case #2 (paper section III-A2): predicting an application's
// performance distribution on a system it has never run on, from a measured
// profile + distribution on a different system.
//
// A system-to-system model is trained from benchmarks measured on both
// machines: the feature vector is the application's full profile on the
// source system concatenated with its encoded source distribution; the
// target is the encoded distribution on the target system.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>

#include "core/distrepr.hpp"
#include "core/models.hpp"
#include "core/profile.hpp"
#include "measure/corpus.hpp"

namespace varpred::core {

struct CrossSystemEvalCache;

struct CrossSystemConfig {
  ReprKind repr = ReprKind::kPearson;
  ModelKind model = ModelKind::kKnn;
  ProfileOptions profile;
  std::uint64_t seed = 2002;
  /// When set, overrides `model` (see FewRunsConfig::model_factory).
  std::function<std::unique_ptr<ml::Regressor>()> model_factory;
};

/// Feature vector of one application: its full profile on `system`
/// followed by its encoded distribution there.
std::vector<double> cross_system_features(const measure::SystemModel& system,
                                          const measure::BenchmarkRuns& runs,
                                          const ProfileOptions& profile,
                                          const DistributionRepr& repr);

class CrossSystemPredictor {
 public:
  explicit CrossSystemPredictor(CrossSystemConfig config = {});

  const CrossSystemConfig& config() const { return config_; }
  const DistributionRepr& repr() const { return *repr_; }
  /// Source system the predictor was trained from; nullptr before training
  /// (or for a loaded artifact whose system string was empty).
  const measure::SystemModel* source_system() const { return source_system_; }

  /// Trains on benchmarks measured in both corpora (row b of each corpus is
  /// the same benchmark). `train_benchmarks` selects the training subset.
  /// The rows come from cross_system_rows, or with `cache` from the
  /// fold-shared artifacts CrossSystemEvalCache::build made for this exact
  /// (corpora, config) — see FewRunsPredictor::train; a cache requires
  /// strictly ascending `train_benchmarks`.
  void train(const measure::Corpus& source, const measure::Corpus& target,
             std::span<const std::size_t> train_benchmarks,
             const CrossSystemEvalCache* cache = nullptr);

  void train_all(const measure::Corpus& source,
                 const measure::Corpus& target);

  bool trained() const { return model_ != nullptr && model_->trained(); }

  /// cross_system_features under this predictor's profile options and
  /// representation. `system` is the source system the runs were measured
  /// on.
  std::vector<double> make_features(
      const measure::SystemModel& system,
      const measure::BenchmarkRuns& source_runs) const;

  /// Predicts the encoded target-system distribution.
  std::vector<double> predict_encoded(
      std::span<const double> features) const;

  /// Predicts and reconstructs `n_samples` relative times on the target
  /// system for an application given by its features: make_features of its
  /// source runs, or the row a CrossSystemEvalCache holds for it.
  std::vector<double> predict_distribution(std::span<const double> features,
                                           std::size_t n_samples,
                                           Rng& rng) const;

  /// End-to-end: the above for an application measured as `source_runs` on
  /// the source system.
  std::vector<double> predict_distribution(
      const measure::BenchmarkRuns& source_runs, std::size_t n_samples,
      Rng& rng) const;

  /// Serializes the trained transfer model: this is the artifact a system
  /// vendor ships so customers can predict distributions on hardware they
  /// do not own yet.
  void save(std::ostream& out) const;
  static CrossSystemPredictor load(std::istream& in);

 private:
  CrossSystemConfig config_;
  std::unique_ptr<DistributionRepr> repr_;
  std::unique_ptr<ml::Regressor> model_;
  const measure::SystemModel* source_system_ = nullptr;  ///< set at train
};

}  // namespace varpred::core
