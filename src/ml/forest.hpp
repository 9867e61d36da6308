// Random forest regressor: bagged multi-output CART trees, trained in
// parallel on the global thread pool. Deterministic: tree t is seeded from
// (seed, t) regardless of worker count.
#pragma once

#include "ml/tree.hpp"

namespace varpred::ml {

struct ForestParams {
  std::size_t n_trees = 150;
  TreeParams tree;
  bool bootstrap = true;
  /// Fraction of features considered per split (0 < f <= 1); translated to
  /// tree.max_features at fit time. 1.0 means all features.
  double feature_fraction = 1.0 / 3.0;
  std::uint64_t seed = 2;
};

class RandomForest final : public Regressor {
 public:
  explicit RandomForest(ForestParams params = {});

  using Regressor::fit;
  /// A non-null `presorted` must be SortedColumns::build(x) (dimension
  /// match is checked, whatever feature_fraction is).
  void fit(const Matrix& x, const Matrix& y,
           const SortedColumns* presorted) override;
  std::vector<double> predict(std::span<const double> row) const override;
  std::unique_ptr<Regressor> clone() const override;
  std::string name() const override { return "RF"; }
  bool trained() const override { return !trees_.empty(); }

  const ForestParams& params() const { return params_; }
  std::size_t tree_count() const { return trees_.size(); }

  void save(std::ostream& out) const override;
  static RandomForest load(std::istream& in);

 private:
  ForestParams params_;
  std::vector<RegressionTree> trees_;
  std::size_t n_outputs_ = 0;
};

}  // namespace varpred::ml
