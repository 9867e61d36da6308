// Dense row-major matrix used throughout the ML substrate. Rows are
// observations, columns are features/targets; row spans give zero-copy views
// for distance computations and tree splits.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace varpred::ml {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from a vector of equally-sized rows.
  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& at(std::size_t r, std::size_t c) {
    VARPRED_CHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  double at(std::size_t r, std::size_t c) const {
    VARPRED_CHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Unchecked element access for hot loops.
  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) {
    VARPRED_CHECK(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    VARPRED_CHECK(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }

  /// Copies a column out.
  std::vector<double> col(std::size_t c) const;

  /// Appends a row (must match cols; sets cols on the first append).
  void push_row(std::span<const double> values);

  /// Selects a subset of rows into a new matrix.
  Matrix gather_rows(std::span<const std::size_t> indices) const;

  /// The transpose: row c of the result is column c of this matrix, stored
  /// contiguously.
  Matrix transposed() const;

  const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace varpred::ml
