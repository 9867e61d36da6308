// Gauss-Legendre quadrature for the maximum-entropy solver's moment
// integrals. Nodes/weights are computed on demand with Newton iteration on
// the Legendre recurrence and cached per order.
#pragma once

#include <cstddef>
#include <vector>

namespace varpred::maxent {

/// Nodes and weights of an n-point Gauss-Legendre rule on [-1, 1].
struct GaussLegendreRule {
  std::vector<double> nodes;
  std::vector<double> weights;
};

/// Returns (and caches) the n-point rule on [-1, 1].
const GaussLegendreRule& gauss_legendre(std::size_t n);

/// Maps rule nodes from [-1,1] onto [a,b]; returns scaled nodes and weights.
void scaled_rule(std::size_t n, double a, double b, std::vector<double>& nodes,
                 std::vector<double>& weights);

}  // namespace varpred::maxent
