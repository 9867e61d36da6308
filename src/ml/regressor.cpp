#include "ml/regressor.hpp"

namespace varpred::ml {

Matrix Regressor::predict_batch(const Matrix& x) const {
  Matrix out;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto y = predict(x.row(r));
    out.push_row(y);
  }
  return out;
}

std::vector<double> Regressor::fit_predict(const Matrix& x, const Matrix& y,
                                           const SortedColumns* presorted,
                                           std::span<const double> query) {
  fit(x, y, presorted);
  return predict(query);
}

}  // namespace varpred::ml
