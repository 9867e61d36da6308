// k-nearest-neighbors multi-output regressor.
//
// The paper's best model: k = 15 with cosine similarity over standardized
// profile features, averaging the target vectors of the nearest neighbors.
// Supports uniform and inverse-distance weighting.
#pragma once

#include "ml/distance.hpp"
#include "ml/regressor.hpp"
#include "ml/scaler.hpp"

namespace varpred::ml {

/// Neighbor-weighting scheme.
enum class KnnWeighting {
  kUniform,   ///< plain average of the k nearest targets
  kDistance,  ///< weights 1 / (distance + eps)
};

struct KnnParams {
  std::size_t k = 15;                           // the paper's setting
  Metric metric = Metric::kCosine;              // the paper's setting
  KnnWeighting weighting = KnnWeighting::kUniform;
  bool standardize = true;  ///< fit a StandardScaler on the features
};

class KnnRegressor final : public Regressor {
 public:
  explicit KnnRegressor(KnnParams params = {});

  using Regressor::fit;
  void fit(const Matrix& x, const Matrix& y,
           const SortedColumns* presorted) override;
  std::vector<double> predict(std::span<const double> row) const override;
  std::unique_ptr<Regressor> clone() const override;
  std::string name() const override { return "kNN"; }
  bool trained() const override { return trained_; }

  const KnnParams& params() const { return params_; }

  /// Indices (into the training set) of the k nearest neighbors of `row`,
  /// nearest first. Exposed for diagnostics and tests.
  ///
  /// Distance ties are broken by ascending training-row index, so the
  /// neighbor set is deterministic even when many rows tie — e.g. an
  /// all-zero query under the cosine metric, where every row is at the
  /// documented zero-norm distance of exactly 1.0 and the query returns
  /// rows 0..k-1.
  std::vector<std::size_t> neighbors(std::span<const double> row) const;

  void save(std::ostream& out) const override;
  static KnnRegressor load(std::istream& in);

 private:
  // Shared search: transforms the query once, runs the blocked distance
  // kernel once, and optionally reports each selected neighbor's distance
  // (so distance-weighted prediction does not recompute them).
  std::vector<std::size_t> search(std::span<const double> row,
                                  std::vector<double>* neighbor_dist) const;

  KnnParams params_;
  StandardScaler scaler_;
  Matrix x_;
  Matrix y_;
  bool trained_ = false;
};

}  // namespace varpred::ml
