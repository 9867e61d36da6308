// Leave-one-group-out evaluation of both use cases (paper section V).
//
// For every benchmark the evaluator trains a model on all other benchmarks,
// predicts the held-out benchmark's distribution, reconstructs samples, and
// scores them against the measured relative times with the two-sample
// Kolmogorov-Smirnov statistic (0 = perfect). The per-benchmark KS scores
// are what the paper's violin plots (Figs. 4, 6, 7, 8) summarize.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/crosssystem.hpp"
#include "core/predictor.hpp"
#include "stats/summary.hpp"

namespace varpred::core {

struct FewRunsEvalCache;
struct CrossSystemEvalCache;

/// The three paper metrics for one measured-vs-predicted sample pair.
/// Shared by the LOGO-CV fold loops and the config-aware evaluation
/// (`configpred`), so both score with exactly the same metrics.
struct WindowScore {
  double ks = 1.0;           ///< two-sample KS statistic (0 = perfect)
  double wasserstein1 = 0.0; ///< normalized 1-Wasserstein distance
  double overlap = 0.0;      ///< overlap coefficient (1 = perfect)
};

WindowScore score_window(std::span<const double> measured,
                         std::span<const double> predicted);

/// Per-benchmark KS scores for one configuration.
struct EvalResult {
  std::vector<std::string> benchmark_names;
  std::vector<double> ks;

  stats::ViolinSummary summary() const {
    return stats::ViolinSummary::from(ks);
  }
  double mean_ks() const { return summary().mean; }
};

/// Evaluation knobs shared by both use cases.
struct EvalOptions {
  std::size_t n_reconstruct = 2000;  ///< samples drawn from the prediction
  std::uint64_t seed = 4242;
  /// Prediction-quality telemetry labels. When `quality_repr` is non-empty
  /// and the global obs::QualityRecorder is enabled, evaluate_* scores
  /// every fold with the three paper metrics (KS, normalized W1, overlap)
  /// and records the fold-median of each as the cell
  /// (app="*", systems, repr, model [, context]) — the systems label is
  /// derived from the corpora. The median (not mean) is recorded so a
  /// single fold hitting the normalized-W1 infinity sentinel cannot poison
  /// the cell. Empty `quality_repr` (the default) skips the extra scoring
  /// entirely.
  std::string quality_repr;
  std::string quality_model;
  std::string quality_context;
};

/// Use case #1: leave-one-benchmark-out over `corpus`.
///
/// Fold-shared training artifacts (profiles, encoded targets, presorted
/// feature columns — see core/evalcache.hpp) are computed once per call and
/// shared read-only across the parallel fold loop; every fold's scores are
/// byte-identical to the uncached per-fold path, which remains reachable by
/// setting VARPRED_EVAL_NO_CACHE=1 in the environment.
EvalResult evaluate_few_runs(const measure::Corpus& corpus,
                             const FewRunsConfig& config,
                             const EvalOptions& options = {});

/// Use case #2: leave-one-benchmark-out over paired corpora
/// (source system -> target system).
EvalResult evaluate_cross_system(const measure::Corpus& source,
                                 const measure::Corpus& target,
                                 const CrossSystemConfig& config,
                                 const EvalOptions& options = {});

/// Predicts the held-out benchmark `bench` under use case #1 and returns the
/// reconstructed samples (the figure harnesses use this for overlays).
/// `cache` (optional) shares fold-level training artifacts across calls —
/// see FewRunsPredictor::train.
std::vector<double> predict_held_out_few_runs(
    const measure::Corpus& corpus, std::size_t bench,
    const FewRunsConfig& config, const EvalOptions& options = {},
    const FewRunsEvalCache* cache = nullptr);

/// Predicts the held-out benchmark `bench` under use case #2.
std::vector<double> predict_held_out_cross_system(
    const measure::Corpus& source, const measure::Corpus& target,
    std::size_t bench, const CrossSystemConfig& config,
    const EvalOptions& options = {},
    const CrossSystemEvalCache* cache = nullptr);

}  // namespace varpred::core
