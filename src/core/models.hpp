// Model zoo for the prediction pipelines (paper section III-B3): kNN with
// k = 15 and cosine similarity, random forests, and XGBoost-style gradient
// boosting, with defaults tuned for the 60-benchmark corpus size.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "ml/regressor.hpp"

namespace varpred::core {

enum class ModelKind {
  kKnn,
  kRandomForest,
  kXgBoost,
  /// Extension (not in the paper): L2-regularized linear baseline.
  kRidge,
};

std::string to_string(ModelKind kind);

/// The paper's three model kinds, in its presentation order.
std::span<const ModelKind> all_model_kinds();

/// All kinds including the extension baselines.
std::span<const ModelKind> extended_model_kinds();

/// Builds a fresh regressor with the library defaults for `kind`.
/// `seed` controls the only internal randomness: the forest's bootstrap
/// samples.
std::unique_ptr<ml::Regressor> make_model(ModelKind kind,
                                          std::uint64_t seed = 1);

}  // namespace varpred::core
