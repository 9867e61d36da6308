// Configuration-space prediction (ROADMAP item 4, after Xu et al.): learn
// an application's performance distribution as a function of the *system
// configuration* it runs under.
//
// The training corpus crosses a sampled set of SystemConfigs with a
// sampled set of benchmarks (measure::ConfigCorpus). For every cell the
// feature vector is the config's knob features prepended to a profile
// built from probe runs measured under the NEUTRAL config — at tuning time
// probe runs exist only under the deployed default configuration, and the
// model's whole job is to extrapolate from that signature to configs the
// application has never run under. The target is the encoded relative-time
// distribution of the cell's conditioned runs.
//
// Generalization is evaluated leave-one-config-out: every config's cells
// are predicted by a model trained without that config, and the fold
// scores are recorded through the quality telemetry as held-out-config
// cells (metric medians, context "heldout-config").
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/distrepr.hpp"
#include "core/models.hpp"
#include "core/profile.hpp"
#include "measure/corpus.hpp"
#include "stats/summary.hpp"

namespace varpred::core {

struct ConfigAwareConfig {
  std::size_t n_probe_runs = 10;     ///< probe runs available at tuning time
  std::size_t train_replicates = 2;  ///< probe resamples per training cell
  ReprKind repr = ReprKind::kPearson;
  /// Tree ensemble, not the paper's kNN: under cosine distance over the
  /// standardized joint feature vector the wide profile block swamps the
  /// six config features, so a kNN surrogate returns near-identical
  /// predictions for every config (its neighbors are the same benchmark's
  /// rows across *all* configs). Trees split on whichever features explain
  /// target variance, which is exactly the config block.
  ModelKind model = ModelKind::kXgBoost;
  ProfileOptions profile;
  std::uint64_t seed = 2002;
};

/// Predicts (config, profile) -> distribution. The profile always comes
/// from neutral-config probe runs; the config is a point in the knob space
/// (not necessarily one seen in training).
class ConfigAwarePredictor {
 public:
  explicit ConfigAwarePredictor(ConfigAwareConfig config = {});

  const ConfigAwareConfig& config() const { return config_; }
  const DistributionRepr& repr() const { return *repr_; }

  /// Trains on the cells of the configs selected by `train_configs`
  /// (indices into corpus.configs), over every benchmark in the corpus.
  /// Rows are deterministic per (config, benchmark) and independent of the
  /// training subset, so leave-one-config-out folds share identical rows
  /// for the configs they have in common.
  void train(const measure::ConfigCorpus& corpus,
             std::span<const std::size_t> train_configs);

  /// Convenience: trains on every config in the corpus.
  void train_all(const measure::ConfigCorpus& corpus);

  bool trained() const { return model_ != nullptr && model_->trained(); }

  /// Predicts the encoded distribution for `config` from a prepared
  /// neutral-config profile vector.
  std::vector<double> predict_encoded(
      const measure::SystemConfig& config,
      std::span<const double> profile_features) const;

  /// The profile of the probe runs selected by `probe_runs` of `runs`
  /// (neutral-config measurements) under this predictor's system and
  /// profile options. A caller that predicts one application under many
  /// configs builds it once.
  std::vector<double> make_profile(
      const measure::BenchmarkRuns& runs,
      std::span<const std::size_t> probe_runs) const;

  /// Predicts under `config` from a neutral-config profile (make_profile)
  /// and reconstructs `n_samples` relative-time samples.
  std::vector<double> predict_distribution(
      const measure::SystemConfig& config,
      std::span<const double> profile_features, std::size_t n_samples,
      Rng& rng) const;

  /// End-to-end: the above for the profile of `probe_runs` of `runs`.
  std::vector<double> predict_distribution(
      const measure::SystemConfig& config,
      const measure::BenchmarkRuns& runs,
      std::span<const std::size_t> probe_runs, std::size_t n_samples,
      Rng& rng) const;

 private:
  ConfigAwareConfig config_;
  std::unique_ptr<DistributionRepr> repr_;
  std::unique_ptr<ml::Regressor> model_;
  const measure::SystemModel* system_ = nullptr;  ///< set at train time
};

/// Held-out-config evaluation knobs.
struct ConfigEvalOptions {
  std::size_t n_reconstruct = 2000;  ///< samples drawn from each prediction
  std::uint64_t seed = 4242;
  /// When non-empty and the global obs::QualityRecorder is enabled, the
  /// fold medians of the three paper metrics over every held-out
  /// (config, benchmark) cell are recorded as quality cells with context
  /// "heldout-config" (app "*", systems from the corpus).
  std::string quality_repr;
  std::string quality_model;
};

/// Per-held-out-config mean KS scores.
struct ConfigEvalResult {
  std::vector<std::string> config_names;
  std::vector<double> ks;  ///< mean KS over the config's benchmark cells

  stats::ViolinSummary summary() const {
    return stats::ViolinSummary::from(ks);
  }
  double mean_ks() const { return summary().mean; }
};

/// Leave-one-config-out over `corpus`: every config's cells are predicted
/// by a surrogate trained on the remaining configs. Deterministic per
/// (corpus, config, options.seed).
ConfigEvalResult evaluate_config_aware(const measure::ConfigCorpus& corpus,
                                       const ConfigAwareConfig& config,
                                       const ConfigEvalOptions& options = {});

}  // namespace varpred::core
