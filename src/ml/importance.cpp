#include "ml/importance.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"
#include "ml/metrics.hpp"

namespace varpred::ml {
namespace {

// Mean over rows of the per-row MSE across the outputs.
double mse_scorer(const Regressor& model, const Matrix& x_test,
                  const Matrix& y_test) {
  double total = 0.0;
  for (std::size_t r = 0; r < x_test.rows(); ++r) {
    const auto pred = model.predict(x_test.row(r));
    total += mse(y_test.row(r), pred);
  }
  return total / static_cast<double>(x_test.rows());
}

}  // namespace

std::vector<double> permutation_importance(const Regressor& model,
                                           const Matrix& x, const Matrix& y,
                                           std::size_t repeats, Rng& rng) {
  VARPRED_CHECK_ARG(model.trained(), "model must be trained");
  VARPRED_CHECK_ARG(repeats >= 1, "need at least one shuffle repeat");
  const double baseline = mse_scorer(model, x, y);

  std::vector<double> importance(x.cols(), 0.0);
  Matrix shuffled = x;
  for (std::size_t f = 0; f < x.cols(); ++f) {
    double total = 0.0;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      // Fisher-Yates shuffle of column f.
      for (std::size_t i = x.rows(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(rng.uniform_index(i));
        std::swap(shuffled(i - 1, f), shuffled(j, f));
      }
      total += mse_scorer(model, shuffled, y) - baseline;
    }
    importance[f] = total / static_cast<double>(repeats);
    // Restore the column.
    for (std::size_t r = 0; r < x.rows(); ++r) {
      shuffled(r, f) = x(r, f);
    }
  }
  return importance;
}

std::vector<std::size_t> top_features(std::span<const double> importance,
                                      std::size_t top_k) {
  std::vector<std::size_t> order(importance.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return importance[a] > importance[b];
                   });
  order.resize(std::min(top_k, order.size()));
  return order;
}

}  // namespace varpred::ml
