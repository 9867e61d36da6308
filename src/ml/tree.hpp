// Multi-output CART regression tree.
//
// Splits minimize the summed squared error across all output columns
// (variance reduction). Used standalone, bagged in RandomForest, and as the
// base learner (single-output) inside GradientBoosting.
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.hpp"
#include "ml/regressor.hpp"
#include "ml/sorted_columns.hpp"

namespace varpred::ml {

struct TreeParams {
  std::size_t max_depth = 10;
  std::size_t min_samples_leaf = 1;
  std::size_t min_samples_split = 2;
  /// Number of candidate features per split; 0 means all features.
  std::size_t max_features = 0;
  /// Seed for the per-split feature subsampling (only used when
  /// max_features narrows the candidate set).
  std::uint64_t seed = 1;
};

class RegressionTree final : public Regressor {
 public:
  explicit RegressionTree(TreeParams params = {});

  using Regressor::fit;
  /// A non-null `presorted` must be SortedColumns::build(x) (dimension
  /// match is checked, whatever max_features is).
  void fit(const Matrix& x, const Matrix& y,
           const SortedColumns* presorted) override;

  /// Fits on a subset of rows (bootstrap support for forests). `presorted`,
  /// when given, must hold the per-feature orders of exactly the `indices`
  /// sample (length match is checked): each column lists the sample's row
  /// indices sorted by (feature value, index), duplicates included — i.e.
  /// SortedColumns::filtered(indices, /*remap=*/false) of a dataset-level
  /// artifact. It is consumed only when every split considers all features
  /// (max_features covers the full column set) and yields byte-identical
  /// trees; otherwise it is checked and ignored.
  ///
  /// `columns`, when given, must be x.transposed(): the column-major copy
  /// the split search reads feature values from. A forest builds it once
  /// and shares it read-only across its trees; when null, the fit builds
  /// its own.
  void fit_rows(const Matrix& x, const Matrix& y,
                std::span<const std::size_t> indices,
                const SortedColumns* presorted = nullptr,
                const Matrix* columns = nullptr);
  /// As above, with the sample's orders already loaded as column segments,
  /// e.g. ColumnSegments(dataset_artifact, indices) (shape match is
  /// checked): a forest builds them per bootstrap sample in one pass.
  void fit_rows(const Matrix& x, const Matrix& y,
                std::span<const std::size_t> indices, ColumnSegments segments,
                const Matrix* columns = nullptr);

  std::vector<double> predict(std::span<const double> row) const override;
  std::unique_ptr<Regressor> clone() const override;
  std::string name() const override { return "Tree"; }
  bool trained() const override { return !nodes_.empty(); }

  std::size_t node_count() const { return nodes_.size(); }
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

  // Both fit_rows forms: `segments` is set when column-segment mode runs.
  void fit_sample(const Matrix& x, const Matrix& y,
                  std::span<const std::size_t> indices,
                  std::optional<ColumnSegments> segments,
                  const Matrix* columns);
  // Whether every split considers every feature of an n_features matrix.
  // Column-segment mode needs it, else the candidate subset would still
  // have to be sorted per node anyway.
  bool all_features(std::size_t n_features) const;
  // Recursive builder over an index range [begin, end) of work_.
  std::int32_t build(const Matrix& x, const Matrix& y, std::size_t begin,
                     std::size_t end, std::size_t depth, Rng& rng);
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
