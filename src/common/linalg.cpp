#include "common/linalg.hpp"

#include <cmath>
#include <utility>

#include "common/check.hpp"

namespace varpred {

std::vector<double> solve_dense(std::vector<double> a, std::vector<double> b,
                                std::size_t n, double tol) {
  VARPRED_CHECK_ARG(a.size() == n * n, "matrix size mismatch");
  VARPRED_CHECK_ARG(b.size() == n, "rhs size mismatch");

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: pick the largest-magnitude entry in this column.
    std::size_t pivot = col;
    double best = std::fabs(a[col * n + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double mag = std::fabs(a[r * n + col]);
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    VARPRED_CHECK(best > tol, "singular matrix in solve_dense");
    if (pivot != col) {
      for (std::size_t c = col; c < n; ++c) {
        std::swap(a[pivot * n + c], a[col * n + c]);
      }
      std::swap(b[pivot], b[col]);
    }
    const double inv_pivot = 1.0 / a[col * n + col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a[r * n + col] * inv_pivot;
      if (factor == 0.0) continue;
      a[r * n + col] = 0.0;
      for (std::size_t c = col + 1; c < n; ++c) {
        a[r * n + c] -= factor * a[col * n + c];
      }
      b[r] -= factor * b[col];
    }
  }

  std::vector<double> x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double sum = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) sum -= a[ri * n + c] * x[c];
    x[ri] = sum / a[ri * n + ri];
  }
  return x;
}

double dot(std::span<const double> a, std::span<const double> b) {
  VARPRED_CHECK_ARG(a.size() == b.size(), "dot size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

}  // namespace varpred
