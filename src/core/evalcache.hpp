// Training rows and the fold-shared evaluation caches built from them.
//
// Each use case has one training-row builder, few_runs_rows or
// cross_system_rows. The uncached FewRunsPredictor::train /
// CrossSystemPredictor::train call it for their training subset; the
// caches below call it once for every benchmark. The builder runs on the
// pool, one benchmark per iteration, each writing its target and its rows
// into that benchmark's pre-sized slot, so the bytes do not depend on the
// worker count. Both row constructions are also fold independent by design:
//
//   * Few-runs rows use a per-benchmark RNG stream seeded from
//     (config.seed, system name, benchmark index) — never from the training
//     subset — so benchmark b's replicate rows are byte-identical in every
//     fold that includes b.
//   * Cross-system rows are pure functions of the corpora.
//
// The LOGO-CV evaluators train one predictor per held-out benchmark, so the
// caches precompute the full feature matrix and targets once, and folds
// gather their rows — byte-identical to rebuilding them (proved by the
// EvalCache.*MatchUncachedPath tests against VARPRED_EVAL_NO_CACHE=1).
//
// For the tree learners (RF, XGBoost, or any model_factory, whose learner
// is unknown) the caches also carry the dataset-level sorted-column
// artifact of the feature matrix. Each fold derives its own orders by a
// linear filtered() pass and hands them to the tree learner's fit, which
// then skips its per-fit column sorts (see ml/sorted_columns.hpp). kNN and
// ridge never read it, so their caches have none and their folds skip the
// filter.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/crosssystem.hpp"
#include "core/predictor.hpp"
#include "measure/corpus.hpp"
#include "ml/matrix.hpp"
#include "ml/sorted_columns.hpp"

namespace varpred::core {

/// Training rows of a list of benchmarks: `features` holds the rows of
/// benchmarks[0], then those of benchmarks[1], ...; `targets[i]` is the
/// encoded target of benchmarks[i].
struct TrainingRows {
  ml::Matrix features;
  std::vector<std::vector<double>> targets;
};

/// Use case 1: config.train_replicates rows per benchmark, each a profile
/// of n_probe_runs runs drawn from the benchmark's own RNG stream; the
/// target encodes every measured run.
TrainingRows few_runs_rows(const measure::Corpus& corpus,
                           std::span<const std::size_t> benchmarks,
                           const FewRunsConfig& config,
                           const DistributionRepr& repr);

/// Use case 2: one row per benchmark, cross_system_features of its source
/// runs; the target encodes its runs on the target system.
TrainingRows cross_system_rows(const measure::Corpus& source,
                               const measure::Corpus& target,
                               std::span<const std::size_t> benchmarks,
                               const CrossSystemConfig& config,
                               const DistributionRepr& repr);

/// Throws std::invalid_argument unless every cached feature row is
/// `feature_width` wide and every cached target `target_width` wide. A
/// trainer calls it on the cache it is handed: a cache built for another
/// representation or profile shape would fit targets the trainer cannot
/// decode. (PyMaxEnt and PearsonRnd share one encoding, so a cache of one
/// serves the other.)
void check_cache_shape(const ml::Matrix& features,
                       const std::vector<std::vector<double>>& targets,
                       std::size_t feature_width, std::size_t target_width);

/// Precomputed training artifacts for evaluate_few_runs (one corpus).
/// Row layout: benchmark b's replicates occupy rows
/// [b * replicates, (b + 1) * replicates).
struct FewRunsEvalCache {
  ml::Matrix features;                      ///< all (benchmark, replicate) rows
  std::vector<std::vector<double>> targets; ///< encoded target per benchmark
  std::size_t replicates = 0;               ///< train_replicates at build time
  /// Sorted-column orders of `features` (dataset-level; folds filter it).
  /// Null unless the configured learner is a tree learner.
  std::shared_ptr<const ml::SortedColumns> presorted;

  /// Row indices of the given training benchmarks, which must be strictly
  /// ascending (replicates expanded).
  std::vector<std::size_t> rows_for(
      std::span<const std::size_t> benchmarks) const;

  /// Precomputes the artifacts for this exact (corpus, config) pair:
  /// few_runs_rows over every benchmark.
  static FewRunsEvalCache build(const measure::Corpus& corpus,
                                const FewRunsConfig& config);
};

/// Precomputed training artifacts for evaluate_cross_system (one row per
/// benchmark: full source profile + encoded source distribution).
struct CrossSystemEvalCache {
  ml::Matrix features;
  std::vector<std::vector<double>> targets;
  /// As FewRunsEvalCache::presorted.
  std::shared_ptr<const ml::SortedColumns> presorted;

  /// Row indices of the given training benchmarks, which must be strictly
  /// ascending (one row per benchmark, so the indices themselves).
  std::vector<std::size_t> rows_for(
      std::span<const std::size_t> benchmarks) const;

  /// cross_system_rows over every benchmark.
  static CrossSystemEvalCache build(const measure::Corpus& source,
                                    const measure::Corpus& target,
                                    const CrossSystemConfig& config);
};

}  // namespace varpred::core
