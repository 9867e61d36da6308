#include "maxent/quadrature.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <shared_mutex>

#include "common/check.hpp"

namespace varpred::maxent {
namespace {

GaussLegendreRule compute_rule(std::size_t n) {
  GaussLegendreRule rule;
  rule.nodes.resize(n);
  rule.weights.resize(n);
  const std::size_t m = (n + 1) / 2;
  for (std::size_t i = 0; i < m; ++i) {
    // Chebyshev initial guess for the i-th root of P_n.
    double x = std::cos(M_PI * (static_cast<double>(i) + 0.75) /
                        (static_cast<double>(n) + 0.5));
    double dp = 0.0;
    for (int iter = 0; iter < 100; ++iter) {
      // Evaluate P_n(x) and P_n'(x) via the three-term recurrence.
      double p0 = 1.0;
      double p1 = x;
      for (std::size_t k = 2; k <= n; ++k) {
        const double pk = ((2.0 * k - 1.0) * x * p1 - (k - 1.0) * p0) / k;
        p0 = p1;
        p1 = pk;
      }
      dp = n * (x * p1 - p0) / (x * x - 1.0);
      const double dx = p1 / dp;
      x -= dx;
      if (std::fabs(dx) < 1e-15) break;
    }
    rule.nodes[i] = -x;
    rule.nodes[n - 1 - i] = x;
    const double w = 2.0 / ((1.0 - x * x) * dp * dp);
    rule.weights[i] = w;
    rule.weights[n - 1 - i] = w;
  }
  return rule;
}

}  // namespace

const GaussLegendreRule& gauss_legendre(std::size_t n) {
  VARPRED_CHECK_ARG(n >= 1, "quadrature order must be >= 1");
  // Concurrent maxent solves on pool workers all hit this cache; readers
  // take a shared lock so the steady state (every order already computed)
  // never serializes. std::map never moves nodes, so returned references
  // stay valid while later orders are inserted.
  static std::shared_mutex mutex;
  static std::map<std::size_t, GaussLegendreRule> cache;
  {
    std::shared_lock lock(mutex);
    const auto it = cache.find(n);
    if (it != cache.end()) return it->second;
  }
  // Compute outside the lock; two threads racing on the same first request
  // both compute, try_emplace keeps one copy and the loser's work is dropped.
  GaussLegendreRule rule = compute_rule(n);
  std::unique_lock lock(mutex);
  const auto it = cache.try_emplace(n, std::move(rule)).first;
  return it->second;
}

void scaled_rule(std::size_t n, double a, double b, std::vector<double>& nodes,
                 std::vector<double>& weights) {
  const auto& rule = gauss_legendre(n);
  nodes.resize(n);
  weights.resize(n);
  const double half = 0.5 * (b - a);
  const double mid = 0.5 * (a + b);
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i] = mid + half * rule.nodes[i];
    weights[i] = half * rule.weights[i];
  }
}

}  // namespace varpred::maxent
