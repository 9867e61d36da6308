// Presorted feature columns: for every column c of a row-major matrix, the
// row indices sorted by (value, index). Tree learners find axis-aligned
// splits by scanning rows in feature order; computing these orders once per
// dataset and deriving per-fold / per-sample orders by linear filtering
// replaces the O(cols * n log n) sort every tree fit used to pay.
//
// The (value, index) tie-break matters: it makes every order a deterministic
// pure function of the matrix, and it is what keeps `filtered()` exact — a
// subsequence of rows extracted in index order is still sorted by
// (value, new index), so a filtered order is bit-for-bit the order a fresh
// sort of the submatrix would produce. Tree fits that consume a filtered
// artifact therefore build byte-identical trees.
//
// ColumnSegments is the one split-search layout of both tree learners: it
// holds these orders partitioned node by node as a tree grows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ml/matrix.hpp"

namespace varpred::ml {

/// Per-column row orders of one feature matrix (see file comment).
struct SortedColumns {
  /// order[c] holds the matrix's row indices sorted ascending by column c,
  /// ties broken by row index. All columns have the same length: the number
  /// of rows the artifact was built over.
  std::vector<std::vector<std::size_t>> order;

  std::size_t cols() const { return order.size(); }
  std::size_t row_count() const { return order.empty() ? 0 : order[0].size(); }

  /// Sorts every column of `x` from scratch: order[c] = rows of x sorted by
  /// (x(r, c), r). O(cols * n log n), one column per pool iteration; do
  /// this once per dataset.
  static SortedColumns build(const Matrix& x);

  /// Derives the orders of the submatrix formed by `rows` (strictly
  /// ascending, e.g. a fold's training subset) by a linear filter over this
  /// artifact: O(cols * n). Output indices are positions into `rows` (row
  /// numbers of the gathered submatrix): the result is exactly
  /// build(x.gather_rows(rows)). A sample with duplicated rows (a bootstrap
  /// sample) loads straight into ColumnSegments(base, rows) instead.
  SortedColumns filtered(std::span<const std::size_t> rows) const;
};

/// The exact split search's working layout, shared by RegressionTree and
/// GradientBoosting: per-feature row orders partitioned in lockstep with the
/// tree being grown. Every node owns the same [begin, end) range of each
/// column, and that range holds the node's rows sorted by that feature.
/// split() stable-partitions every column's range, so each child's range
/// stays in (value, index) order without sorting past the root.
///
/// Fit-scoped: a learner builds one per tree (or per boosting ensemble) and
/// drops it when the fit returns.
class ColumnSegments {
 public:
  ColumnSegments() = default;
  /// Loads `sorted`'s orders (row ids must fit 32 bits).
  explicit ColumnSegments(const SortedColumns& sorted);
  /// Loads the orders of the sample `rows` of `base` (ascending, duplicates
  /// allowed, e.g. a sorted bootstrap sample) by a counted linear filter:
  /// column f lists base's row ids, each once per occurrence in `rows`, in
  /// the order a sort of the sample multiset by (value, index) gives.
  ColumnSegments(const SortedColumns& base, std::span<const std::size_t> rows);

  std::size_t cols() const { return cols_; }
  std::size_t rows() const { return rows_; }

  /// Column f's rows [begin, end): a node's rows sorted by feature f.
  std::span<const std::uint32_t> segment(std::size_t f, std::size_t begin,
                                         std::size_t end) const {
    return {order_.data() + f * rows_ + begin, end - begin};
  }

  /// Splits the node owning [begin, end) at `threshold` on feature f:
  /// afterwards every column's range holds first the rows whose value
  /// `values[row]` is <= threshold, then the others, each side in its
  /// previous order. `values` is feature f's column indexed by row id.
  /// Branch-free: each row is written to both sides and the sides advance
  /// by its go-left flag; on AVX2 hosts eight rows per step, left-packed
  /// by their go-left mask (see sorted_columns.cpp). Row ids only move, so
  /// both arms leave the same orders.
  void split(std::size_t f, std::span<const double> values, double threshold,
             std::size_t begin, std::size_t end);

  /// Restores the orders of `root`, which must have this object's shape,
  /// reusing this object's storage.
  void reset_to(const ColumnSegments& root);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint32_t> order_;  // column f at [f * rows_, (f + 1) * rows_)
  std::vector<std::uint32_t> spill_;  // right side of the column in flight
  std::vector<std::uint8_t> go_left_;  // per row id, for the split in flight
};

}  // namespace varpred::ml
