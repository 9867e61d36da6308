// Small dense linear algebra: just enough for the maximum-entropy Newton
// solver and a few calibration fits. Matrices are row-major
// std::vector<double> with explicit dimensions; sizes here are tiny
// (<= ~16x16), so clarity beats blocking.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace varpred {

/// Solves A x = b in place with partial-pivot Gaussian elimination.
/// `a` is an n x n row-major matrix (destroyed); `b` has length n (destroyed).
/// Returns the solution. Throws CheckError if the matrix is singular
/// (pivot below `tol`).
std::vector<double> solve_dense(std::vector<double> a, std::vector<double> b,
                                std::size_t n, double tol = 1e-12);

/// Dot product.
double dot(std::span<const double> a, std::span<const double> b);

}  // namespace varpred
