#include "ml/sorted_columns.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "common/check.hpp"
#include "obs/obs.hpp"

namespace varpred::ml {

SortedColumns SortedColumns::build(const Matrix& x) {
  VARPRED_CHECK_ARG(!x.empty(), "cannot presort an empty matrix");
  obs::Span span("ml.sorted_columns.build");
  VARPRED_OBS_COUNT("ml.sorted_columns.builds", 1);
  SortedColumns out;
  out.order.resize(x.cols());
  std::vector<std::size_t> base(x.rows());
  std::iota(base.begin(), base.end(), std::size_t{0});
  for (std::size_t c = 0; c < x.cols(); ++c) {
    auto col_order = base;
    std::sort(col_order.begin(), col_order.end(),
              [&](std::size_t a, std::size_t b) {
                const double va = x(a, c);
                const double vb = x(b, c);
                if (va != vb) return va < vb;
                return a < b;
              });
    out.order[c] = std::move(col_order);
  }
  return out;
}

namespace {

// Multiplicity of each of the n source rows in the sample `rows`, which
// must be ascending (strictly, when `strict`) and index rows below n.
std::vector<std::uint32_t> multiplicities(std::span<const std::size_t> rows,
                                          std::size_t n, bool strict) {
  VARPRED_CHECK_ARG(!rows.empty(), "cannot filter to an empty row set");
  std::vector<std::uint32_t> count(n, 0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::size_t r = rows[i];
    VARPRED_CHECK_ARG(r < n, "filtered row index out of range");
    if (i > 0) {
      VARPRED_CHECK_ARG(strict ? r > rows[i - 1] : r >= rows[i - 1],
                        "filtered rows must be ascending");
    }
    ++count[r];
  }
  return count;
}

}  // namespace

SortedColumns SortedColumns::filtered(std::span<const std::size_t> rows,
                                      bool remap) const {
  const std::vector<std::uint32_t> count =
      multiplicities(rows, row_count(), remap);
  VARPRED_OBS_COUNT("ml.sorted_columns.filters", 1);
  // For remap, each source row's row number in the gathered submatrix.
  std::vector<std::size_t> position(remap ? row_count() : 0, 0);
  if (remap) {
    for (std::size_t i = 0; i < rows.size(); ++i) position[rows[i]] = i;
  }

  SortedColumns out;
  out.order.resize(order.size());
  for (std::size_t c = 0; c < order.size(); ++c) {
    std::vector<std::size_t> col_order;
    col_order.reserve(rows.size());
    for (const std::size_t r : order[c]) {
      for (std::uint32_t k = 0; k < count[r]; ++k) {
        col_order.push_back(remap ? position[r] : r);
      }
    }
    out.order[c] = std::move(col_order);
  }
  return out;
}

ColumnSegments::ColumnSegments(const SortedColumns& sorted)
    : rows_(sorted.row_count()), cols_(sorted.cols()) {
  order_.reserve(rows_ * cols_);
  std::size_t max_row = 0;
  for (const auto& column : sorted.order) {
    for (const std::size_t row : column) {
      max_row = std::max(max_row, row);
      order_.push_back(static_cast<std::uint32_t>(row));
    }
  }
  VARPRED_CHECK_ARG(max_row <= UINT32_MAX, "row ids do not fit 32 bits");
  spill_.resize(rows_);
  go_left_.resize(rows_ == 0 ? 0 : max_row + 1);
}

ColumnSegments::ColumnSegments(const SortedColumns& base,
                               std::span<const std::size_t> rows)
    : rows_(rows.size()), cols_(base.cols()) {
  const std::vector<std::uint32_t> count =
      multiplicities(rows, base.row_count(), /*strict=*/false);
  VARPRED_CHECK_ARG(rows.back() <= UINT32_MAX, "row ids do not fit 32 bits");
  order_.resize(rows_ * cols_);
  std::uint32_t* out = order_.data();
  for (const auto& column : base.order) {
    for (const std::size_t r : column) {
      for (std::uint32_t k = 0; k < count[r]; ++k) {
        *out++ = static_cast<std::uint32_t>(r);
      }
    }
  }
  spill_.resize(rows_);
  go_left_.resize(rows.back() + 1);
}

void ColumnSegments::split(std::size_t f, std::span<const double> values,
                           double threshold, std::size_t begin,
                           std::size_t end) {
  for (const std::uint32_t row : segment(f, begin, end)) {
    go_left_[row] = values[row] <= threshold;
  }
  for (std::size_t c = 0; c < cols_; ++c) {
    std::uint32_t* seg = order_.data() + c * rows_;
    std::size_t left = begin;
    std::size_t right = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t row = seg[i];
      const std::size_t goes_left = go_left_[row];
      seg[left] = row;  // left <= i: never overwrites an unread row
      spill_[right] = row;
      left += goes_left;
      right += 1 - goes_left;
    }
    std::copy_n(spill_.begin(), right, seg + left);
  }
}

void ColumnSegments::reset_to(const ColumnSegments& root) {
  VARPRED_CHECK_ARG(root.rows_ == rows_ && root.cols_ == cols_,
                    "column segments shape mismatch");
  std::copy(root.order_.begin(), root.order_.end(), order_.begin());
}

}  // namespace varpred::ml
