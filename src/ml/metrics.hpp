// Regression quality metrics.
#pragma once

#include <span>

namespace varpred::ml {

/// Mean squared error.
double mse(std::span<const double> truth, std::span<const double> pred);

/// Coefficient of determination; 0 when truth has zero variance and the
/// prediction is exact, negative when worse than predicting the mean.
double r2(std::span<const double> truth, std::span<const double> pred);

}  // namespace varpred::ml
