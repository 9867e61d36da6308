#include "ml/metrics.hpp"

#include "common/check.hpp"

namespace varpred::ml {
namespace {

void check_sizes(std::span<const double> a, std::span<const double> b) {
  VARPRED_CHECK_ARG(a.size() == b.size() && !a.empty(),
                    "metric inputs must be equal-sized and non-empty");
}

}  // namespace

double mse(std::span<const double> truth, std::span<const double> pred) {
  check_sizes(truth, pred);
  double acc = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const double d = truth[i] - pred[i];
    acc += d * d;
  }
  return acc / static_cast<double>(truth.size());
}

double r2(std::span<const double> truth, std::span<const double> pred) {
  check_sizes(truth, pred);
  double mean = 0.0;
  for (const double t : truth) mean += t;
  mean /= static_cast<double>(truth.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    ss_res += (truth[i] - pred[i]) * (truth[i] - pred[i]);
    ss_tot += (truth[i] - mean) * (truth[i] - mean);
  }
  if (ss_tot <= 0.0) return ss_res <= 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace varpred::ml
