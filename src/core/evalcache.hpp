// Fold-shared evaluation caches for the leave-one-group-out loops.
//
// The LOGO-CV evaluators train one predictor per held-out benchmark; without
// a cache every fold rebuilds the same profiles, encoded targets, and tree
// training artifacts from scratch. Both training-row constructions are fold
// independent by design:
//
//   * Few-runs rows use a per-benchmark RNG stream seeded from
//     (config.seed, system name, benchmark index) — never from the training
//     subset — so benchmark b's replicate rows are byte-identical in every
//     fold that includes b.
//   * Cross-system rows are pure functions of the corpora.
//
// The caches therefore precompute the full feature matrix and targets once,
// and folds gather their rows — byte-identical to rebuilding them (proved by
// the EvalCache.*MatchUncachedPath tests against VARPRED_EVAL_NO_CACHE=1).
//
// The caches also carry the dataset-level sorted-column artifact of the
// feature matrix. Each fold derives its own orders by a linear filtered()
// pass and hands them to the tree learner's fit, which then skips its
// per-fit column sorts (see ml/sorted_columns.hpp).
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

/// Precomputed training artifacts for evaluate_few_runs (one corpus).
/// Row layout: benchmark b's replicates occupy rows
/// [b * replicates, (b + 1) * replicates).
struct FewRunsEvalCache {
  ml::Matrix features;                      ///< all (benchmark, replicate) rows
  std::vector<std::vector<double>> targets; ///< encoded target per benchmark
  std::size_t replicates = 0;               ///< train_replicates at build time
  /// Sorted-column orders of `features` (dataset-level; folds filter it).
  std::shared_ptr<const ml::SortedColumns> presorted;

  /// Row indices of the given training benchmarks (ascending benchmark
  /// order, replicates expanded).
  std::vector<std::size_t> rows_for(
      std::span<const std::size_t> benchmarks) const;

  /// Precomputes the artifacts for this exact (corpus, config) pair. The
  /// feature/target construction replicates FewRunsPredictor::train's
  /// uncached loop operation for operation.
  static FewRunsEvalCache build(const measure::Corpus& corpus,
                                const FewRunsConfig& config);
};

/// Precomputed training artifacts for evaluate_cross_system (one row per
/// benchmark: full source profile + encoded source distribution).
struct CrossSystemEvalCache {
  ml::Matrix features;
  std::vector<std::vector<double>> targets;
  std::shared_ptr<const ml::SortedColumns> presorted;

  static CrossSystemEvalCache build(const measure::Corpus& source,
                                    const measure::Corpus& target,
                                    const CrossSystemConfig& config);
};

}  // namespace varpred::core
