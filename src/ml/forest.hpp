// Random forest regressor: bagged multi-output CART trees, trained in
// parallel on the global thread pool. Every tree fits a bootstrap sample
// and considers every feature at every split (scikit-learn's regression
// defaults). Deterministic: tree t draws its sample from (seed, t)
// regardless of worker count.
#pragma once

#include "ml/tree.hpp"

namespace varpred::ml {

struct ForestParams {
  std::size_t n_trees = 150;
  TreeParams tree;
  std::uint64_t seed = 2;
};

class RandomForest final : public Regressor {
 public:
  explicit RandomForest(ForestParams params = {});

  using Regressor::fit;
  /// A non-null `presorted` must be SortedColumns::build(x) (dimension
  /// match is checked).
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
