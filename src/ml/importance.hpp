// Permutation feature importance for trained models. The importance bench
// uses it to show which profile metrics actually drive the distribution
// predictions.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "ml/regressor.hpp"

namespace varpred::ml {

/// Permutation importance of each feature: the increase in the mean
/// per-row MSE when that feature's column is shuffled (averaged over
/// `repeats` shuffles). Large positive values mean the model relies on the
/// feature.
std::vector<double> permutation_importance(const Regressor& model,
                                           const Matrix& x, const Matrix& y,
                                           std::size_t repeats, Rng& rng);

/// Indices of the `top_k` most important features, most important first.
std::vector<std::size_t> top_features(std::span<const double> importance,
                                      std::size_t top_k);

}  // namespace varpred::ml
