#include "ml/matrix.hpp"

namespace varpred::ml {

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  Matrix m;
  for (const auto& r : rows) m.push_row(r);
  return m;
}

std::vector<double> Matrix::col(std::size_t c) const {
  VARPRED_CHECK(c < cols_, "column index out of range");
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
  return out;
}

void Matrix::push_row(std::span<const double> values) {
  if (rows_ == 0 && cols_ == 0) {
    cols_ = values.size();
    VARPRED_CHECK_ARG(cols_ > 0, "cannot push an empty first row");
  }
  VARPRED_CHECK_ARG(values.size() == cols_, "row width mismatch");
  data_.insert(data_.end(), values.begin(), values.end());
  ++rows_;
}

Matrix Matrix::gather_rows(std::span<const std::size_t> indices) const {
  Matrix out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    VARPRED_CHECK(indices[i] < rows_, "gather index out of range");
    const auto src = row(indices[i]);
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      out.data_[c * rows_ + r] = data_[r * cols_ + c];
    }
  }
  return out;
}

}  // namespace varpred::ml
