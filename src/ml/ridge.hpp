// Ridge (L2-regularized linear) regression: the classical linear baseline
// the nonlinear models should beat. Multi-output; solved in whichever dual
// is cheaper (primal normal equations when features <= samples, kernel dual
// otherwise -- profile feature vectors are wider than the 60-benchmark
// corpus, so the dual is the common path here).
#pragma once

#include "ml/regressor.hpp"
#include "ml/scaler.hpp"

namespace varpred::ml {

struct RidgeParams {
  double lambda = 1.0;       ///< L2 penalty
  bool standardize = true;   ///< scale features before fitting
};

class RidgeRegressor final : public Regressor {
 public:
  explicit RidgeRegressor(RidgeParams params = {});

  using Regressor::fit;
  void fit(const Matrix& x, const Matrix& y,
           const SortedColumns* presorted) override;
  std::vector<double> predict(std::span<const double> row) const override;
  std::unique_ptr<Regressor> clone() const override;
  std::string name() const override { return "Ridge"; }
  bool trained() const override { return trained_; }
  void save(std::ostream& out) const override;
  static RidgeRegressor load(std::istream& in);

  const RidgeParams& params() const { return params_; }

  /// Learned weights: (n_features x n_outputs), plus per-output intercepts.
  const Matrix& weights() const { return weights_; }
  const std::vector<double>& intercepts() const { return intercepts_; }

 private:
  RidgeParams params_;
  StandardScaler scaler_;
  std::vector<double> center_;     // feature means (post-scaling)
  Matrix weights_;                 // features x outputs
  std::vector<double> intercepts_; // per output
  bool trained_ = false;
};

}  // namespace varpred::ml
