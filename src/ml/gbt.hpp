// Gradient-boosted regression trees (XGBoost-style).
//
// Squared-error objective with second-order leaf weights and regularized
// split gain:
//   w*   = -G / (H + lambda)
//   gain = 1/2 [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda) ]
//          - gamma
// Multi-output targets are handled as one boosted ensemble per output column
// (as XGBoost does), trained in parallel. Supports shrinkage; every tree
// sees every row and every feature (XGBoost's defaults, no subsampling), so
// all trees share one presort, scanned as column segments.
#pragma once

#include <cstdint>

#include "ml/regressor.hpp"
#include "ml/sorted_columns.hpp"

namespace varpred::ml {

struct GbtParams {
  std::size_t n_rounds = 80;
  double learning_rate = 0.1;
  std::size_t max_depth = 3;
  double lambda = 1.0;          ///< L2 regularization on leaf weights
  double gamma = 0.0;           ///< minimum split gain
  double min_child_weight = 1.0;
};

class GradientBoosting final : public Regressor {
 public:
  explicit GradientBoosting(GbtParams params = {});

  using Regressor::fit;
  /// A non-null `presorted` must be SortedColumns::build(x) (dimension
  /// match is checked); when null, the fit builds it.
  void fit(const Matrix& x, const Matrix& y,
           const SortedColumns* presorted) override;
  std::vector<double> predict(std::span<const double> row) const override;
  std::unique_ptr<Regressor> clone() const override;
  std::string name() const override { return "XGBoost"; }
  bool trained() const override { return !ensembles_.empty(); }

  const GbtParams& params() const { return params_; }

  void save(std::ostream& out) const override;
  static GradientBoosting load(std::istream& in);

 private:
  struct Node {
    std::int32_t feature = -1;  // -1: leaf
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    double weight = 0.0;  // leaf weight (already unscaled by learning rate)
  };
  struct BoostTree {
    std::vector<Node> nodes;
    double predict_one(std::span<const double> row) const;
  };
  struct Ensemble {
    double base_score = 0.0;
    std::vector<BoostTree> trees;
  };

  // `segments` holds the root orders of every row on entry; the fit
  // partitions them in place.
  BoostTree fit_tree(const Matrix& x, std::span<const double> grad,
                     std::span<const double> hess, const Matrix& columns,
                     ColumnSegments& segments) const;
  std::int32_t build_node(BoostTree& tree, const Matrix& x,
                          std::span<const double> grad,
                          std::span<const double> hess,
                          std::vector<std::size_t>& work, std::size_t begin,
                          std::size_t end, std::size_t depth,
                          const Matrix& columns,
                          ColumnSegments& segments) const;

  GbtParams params_;
  std::vector<Ensemble> ensembles_;  // one per output column
};

}  // namespace varpred::ml
