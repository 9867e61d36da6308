// Multi-output CART regression tree.
//
// Splits minimize the summed squared error across all output columns
// (variance reduction). Used standalone, bagged in RandomForest, and as the
// base learner (single-output) inside GradientBoosting.
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.hpp"
#include "ml/binned_columns.hpp"
#include "ml/regressor.hpp"
#include "ml/sorted_columns.hpp"

namespace varpred::ml {
struct HistKernels;
}

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

  void fit(const Matrix& x, const Matrix& y) override;
  void set_presorted(std::shared_ptr<const SortedColumns> cols) override;
  void set_binned(std::shared_ptr<const BinnedColumns> bins) override;

  /// Fits on a subset of rows (bootstrap support for forests). `presorted`,
  /// when given, must hold the per-feature orders of exactly the `indices`
  /// sample (length match is checked): each column lists the sample's row
  /// indices sorted by (feature value, index), duplicates included — i.e.
  /// SortedColumns::filtered(indices, /*remap=*/false) of a dataset-level
  /// artifact. It is consumed only when every split considers all features
  /// (max_features covers the full column set) and yields byte-identical
  /// trees; otherwise it is ignored.
  ///
  /// `binned`, when given (and tree_binned_enabled()), must be the
  /// dataset-level BinnedColumns artifact of `x` (dimension match is
  /// checked; `indices` may be any subset/multiset of its rows). The fit
  /// then finds splits over per-node bin histograms — `presorted` is
  /// ignored, no per-split column maintenance — considering exactly the
  /// exact scan's candidate thresholds whenever the binning is exact()
  /// (see ml/binned_columns.hpp). With VARPRED_TREE_BINNED=0 the artifact
  /// is ignored and the exact presorted oracle runs instead.
  ///
  /// `columns`, when given, must be x.transposed(): the column-major copy
  /// the exact split search reads feature values from. A forest builds it
  /// once and shares it read-only across its trees; when null, an exact fit
  /// builds its own.
  void fit_rows(const Matrix& x, const Matrix& y,
                std::span<const std::size_t> indices,
                const SortedColumns* presorted = nullptr,
                const BinnedColumns* binned = nullptr,
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

  static constexpr std::size_t kNoHist = static_cast<std::size_t>(-1);

  // Recursive builder over an index range [begin, end) of work_. `hist` is
  // the node's histogram buffer (index into hist_pool_) in binned
  // all-features mode, kNoHist otherwise.
  std::int32_t build(const Matrix& x, const Matrix& y, std::size_t begin,
                     std::size_t end, std::size_t depth, Rng& rng,
                     std::size_t hist);
  std::int32_t make_leaf(const Matrix& y, std::size_t begin, std::size_t end,
                         std::size_t depth);

  // Binned-mode histogram arena (see tree.cpp). Buffers hold
  // [count: T][sums: T * n_outputs_] over all T = bins_->total_bins() bins;
  // free buffers are always fully zero.
  std::size_t hist_acquire();
  void hist_release(std::size_t hist, std::size_t begin, std::size_t end);
  void hist_add_range(std::size_t hist, std::size_t begin, std::size_t end);
  void hist_sub_range(std::size_t hist, std::size_t begin, std::size_t end);
  void hist_zero_drained(std::size_t hist, std::size_t begin,
                         std::size_t end);

  TreeParams params_;
  std::size_t n_outputs_ = 0;
  std::vector<Node> nodes_;
  std::vector<double> leaf_values_;   // leaf_count * n_outputs

  // Fit-only state below: released before fit_rows returns.
  std::vector<std::size_t> work_;  // node row ranges

  // Exact split search state (see tree.cpp): lives on fit_rows' stack,
  // null outside a fit and in binned mode.
  struct ExactScan;
  ExactScan* exact_ = nullptr;
  std::shared_ptr<const SortedColumns> presorted_hint_;  // next fit() only

  // Histogram-binned fit state (only while fitting with a binned artifact):
  // all-features mode keeps one histogram per live tree path in an arena and
  // derives each sibling by subtracting the smaller child from the parent;
  // feature-subset mode rebuilds a single-feature scratch histogram per
  // candidate, sparse-cleared by revisiting the node's rows.
  const BinnedColumns* bins_ = nullptr;
  const HistKernels* hk_ = nullptr;
  const double* ydata_ = nullptr;  // y's row-major storage during fit
  bool binned_arena_ = false;
  std::vector<std::vector<double>> hist_pool_;
  std::vector<std::size_t> hist_free_;
  std::vector<double> hist_scratch_;  // [count: 256][sums: 256 * n_outputs_]
  std::shared_ptr<const BinnedColumns> binned_hint_;  // next fit() only
};

}  // namespace varpred::ml
