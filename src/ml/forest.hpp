// Random forest regressor: bagged multi-output CART trees, trained in
// parallel on the global thread pool. Every tree fits a bootstrap sample
// and considers every feature at every split (scikit-learn's regression
// defaults). Deterministic: tree t draws its sample from (seed, t)
// regardless of worker count.
#pragma once

#include <functional>

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
  /// Bit for bit fit then predict(query), growing in each bootstrap tree
  /// only the path to the query's leaf (RegressionTree::fit_rows_predict).
  /// Keeps no trees: the forest is untrained afterwards, so predict throws
  /// and save writes no tree. A query whose width is not x.cols() throws
  /// std::invalid_argument.
  std::vector<double> fit_predict(const Matrix& x, const Matrix& y,
                                  const SortedColumns* presorted,
                                  std::span<const double> query) override;
  std::unique_ptr<Regressor> clone() const override;
  std::string name() const override { return "RF"; }
  bool trained() const override { return !trees_.empty(); }

  const ForestParams& params() const { return params_; }
  std::size_t tree_count() const { return trees_.size(); }

  void save(std::ostream& out) const override;
  static RandomForest load(std::istream& in);

 private:
  // Draws tree t's bootstrap sample and calls grow(t, sample, segments,
  // columns) for every tree on the pool: the work fit and fit_predict share.
  void for_each_bootstrap(
      const Matrix& x, const Matrix& y, const SortedColumns* presorted,
      const std::function<void(std::size_t, std::span<const std::size_t>,
                               ColumnSegments, const Matrix&)>& grow) const;

  ForestParams params_;
  std::vector<RegressionTree> trees_;
  std::size_t n_outputs_ = 0;
};

}  // namespace varpred::ml
