#include "ml/knn.hpp"

#include <algorithm>
#include <numeric>

#include "obs/obs.hpp"

namespace varpred::ml {

KnnRegressor::KnnRegressor(KnnParams params) : params_(params) {
  VARPRED_CHECK_ARG(params_.k >= 1, "k must be >= 1");
}

void KnnRegressor::fit(const Matrix& x, const Matrix& y,
                       const SortedColumns* /*presorted*/) {
  VARPRED_CHECK_ARG(x.rows() == y.rows(), "X/Y row count mismatch");
  VARPRED_CHECK_ARG(x.rows() >= 1, "need at least one training row");
  if (params_.standardize) {
    scaler_.fit(x);
    x_ = scaler_.transform(x);
  } else {
    x_ = x;
  }
  y_ = y;
  trained_ = true;
}

std::vector<std::size_t> KnnRegressor::search(
    std::span<const double> row, std::vector<double>* neighbor_dist) const {
  VARPRED_CHECK(trained_, "predict before fit");
  VARPRED_OBS_COUNT("ml.knn.queries", 1);
  const std::vector<double> q =
      params_.standardize ? scaler_.transform_row(row)
                          : std::vector<double>(row.begin(), row.end());

  std::vector<double> dist(x_.rows());
  distances_to_rows(params_.metric, x_.data(), x_.cols(), q, dist);
  const std::size_t k = std::min(params_.k, x_.rows());
  std::vector<std::size_t> order(x_.rows());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](std::size_t a, std::size_t b) {
                      // Tie-break on index for determinism — this is what
                      // keeps the neighbor set stable when distances tie
                      // wholesale (e.g. a zero-norm cosine query, where
                      // every row sits at exactly 1.0).
                      if (dist[a] != dist[b]) return dist[a] < dist[b];
                      return a < b;
                    });
  order.resize(k);
  if (neighbor_dist != nullptr) {
    neighbor_dist->resize(k);
    for (std::size_t i = 0; i < k; ++i) (*neighbor_dist)[i] = dist[order[i]];
  }
  return order;
}

std::vector<std::size_t> KnnRegressor::neighbors(
    std::span<const double> row) const {
  return search(row, nullptr);
}

std::vector<double> KnnRegressor::predict(std::span<const double> row) const {
  const bool weighted = params_.weighting == KnnWeighting::kDistance;
  std::vector<double> nn_dist;
  const auto nn = search(row, weighted ? &nn_dist : nullptr);

  std::vector<double> out(y_.cols(), 0.0);
  double total_weight = 0.0;
  for (std::size_t i = 0; i < nn.size(); ++i) {
    const double w = weighted ? 1.0 / (nn_dist[i] + 1e-9) : 1.0;
    const auto target = y_.row(nn[i]);
    for (std::size_t c = 0; c < out.size(); ++c) out[c] += w * target[c];
    total_weight += w;
  }
  for (auto& v : out) v /= total_weight;
  return out;
}

std::unique_ptr<Regressor> KnnRegressor::clone() const {
  return std::make_unique<KnnRegressor>(*this);
}

}  // namespace varpred::ml
