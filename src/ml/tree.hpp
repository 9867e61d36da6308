// Multi-output CART regression tree.
//
// Splits minimize the summed squared error across all output columns
// (variance reduction). Used standalone, bagged in RandomForest, and as the
// base learner (single-output) inside GradientBoosting. Every split
// considers every feature, and the exact search scans each feature's rows
// in (value, index) order from column segments (see sorted_columns.hpp).
#pragma once

#include <cstdint>

#include "ml/regressor.hpp"
#include "ml/sorted_columns.hpp"

namespace varpred::ml {

struct TreeParams {
  std::size_t max_depth = 10;
  std::size_t min_samples_leaf = 1;
  std::size_t min_samples_split = 2;
};

class RegressionTree final : public Regressor {
 public:
  explicit RegressionTree(TreeParams params = {});

  using Regressor::fit;
  /// A non-null `presorted` must be SortedColumns::build(x) (dimension
  /// match is checked); when null, the fit builds it.
  void fit(const Matrix& x, const Matrix& y,
           const SortedColumns* presorted) override;

  /// Fits on the sample `indices` of x's rows (duplicates allowed: a
  /// forest's sorted bootstrap sample). `segments` must hold the sample's
  /// per-feature orders, e.g. ColumnSegments(SortedColumns::build(x),
  /// indices) (shape match is checked).
  ///
  /// `columns`, when given, must be x.transposed(): the column-major copy
  /// the split search reads feature values from. A forest builds it once
  /// and shares it read-only across its trees; when null, the fit builds
  /// its own.
  void fit_rows(const Matrix& x, const Matrix& y,
                std::span<const std::size_t> indices, ColumnSegments segments,
                const Matrix* columns = nullptr);

  std::vector<double> predict(std::span<const double> row) const override;
  std::unique_ptr<Regressor> clone() const override;
  std::string name() const override { return "Tree"; }
  bool trained() const override { return !nodes_.empty(); }

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t output_count() const { return n_outputs_; }
  /// Heap bytes the fitted tree holds (capacity of every buffer it owns).
  /// Fit-only state is released when a fit returns, so this depends on the
  /// tree's shape, not on the number of training rows.
  std::size_t retained_bytes() const;
  std::size_t leaf_count() const;
  std::size_t depth() const;

  void save(std::ostream& out) const override;
  static RegressionTree load(std::istream& in);

 private:
  struct Node {
    // Internal node: feature/threshold and child indices. Leaf: value offset.
    std::int32_t feature = -1;  // -1 marks a leaf
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::int32_t value_offset = -1;  // into leaf_values_ (leaf only)
    std::int32_t node_depth = 0;
  };

  // Recursive builder over an index range [begin, end) of work_.
  std::int32_t build(const Matrix& x, const Matrix& y, std::size_t begin,
                     std::size_t end, std::size_t depth);
  std::int32_t make_leaf(const Matrix& y, std::size_t begin, std::size_t end,
                         std::size_t depth);

  TreeParams params_;
  std::size_t n_outputs_ = 0;
  std::vector<Node> nodes_;
  std::vector<double> leaf_values_;   // leaf_count * n_outputs

  // Fit-only state below: released before fit_rows returns.
  std::vector<std::size_t> work_;  // node row ranges

  // Exact split search state (see tree.cpp): lives on fit_rows' stack,
  // null outside a fit.
  struct ExactScan;
  ExactScan* exact_ = nullptr;
};

}  // namespace varpred::ml
