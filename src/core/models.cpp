#include "core/models.hpp"

#include "common/check.hpp"
#include "ml/forest.hpp"
#include "obs/obs.hpp"
#include "ml/gbt.hpp"
#include "ml/knn.hpp"
#include "ml/ridge.hpp"

namespace varpred::core {

std::string to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kKnn:
      return "kNN";
    case ModelKind::kRandomForest:
      return "RF";
    case ModelKind::kXgBoost:
      return "XGBoost";
    case ModelKind::kRidge:
      return "Ridge";
  }
  VARPRED_CHECK_ARG(false, "unknown model kind");
}

std::span<const ModelKind> all_model_kinds() {
  static const ModelKind kinds[] = {ModelKind::kKnn, ModelKind::kRandomForest,
                                    ModelKind::kXgBoost};
  return kinds;
}

std::span<const ModelKind> extended_model_kinds() {
  static const ModelKind kinds[] = {ModelKind::kKnn, ModelKind::kRandomForest,
                                    ModelKind::kXgBoost, ModelKind::kRidge};
  return kinds;
}

std::unique_ptr<ml::Regressor> make_model(ModelKind kind, std::uint64_t seed) {
  VARPRED_OBS_COUNT("core.models_created", 1);
  switch (kind) {
    case ModelKind::kKnn: {
      ml::KnnParams params;
      params.k = 15;                      // paper setting
      params.metric = ml::Metric::kCosine;  // paper setting
      params.weighting = ml::KnnWeighting::kUniform;
      params.standardize = true;
      return std::make_unique<ml::KnnRegressor>(params);
    }
    case ModelKind::kRandomForest: {
      // scikit-learn regression defaults: 100 bagged trees, unrestricted
      // depth, and (as every forest here) all features per split -- on a
      // 60-benchmark corpus the bagged trees come out highly correlated,
      // which is why RF trails kNN here just as it does in the paper.
      ml::ForestParams params;
      params.n_trees = 100;
      params.tree.max_depth = 24;
      params.tree.min_samples_leaf = 1;
      params.seed = seed;
      return std::make_unique<ml::RandomForest>(params);
    }
    case ModelKind::kXgBoost: {
      // Genuine XGBoost defaults (eta 0.3, depth 6; like every boosted
      // model here, no row/column subsampling): aggressive greedy fitting
      // that memorizes a 59-row training set. The capacity that makes
      // XGBoost shine on large data works against it at this corpus size --
      // the same effect the paper observes, where XGBoost trails both kNN
      // and the random forest on the system-to-system use case.
      ml::GbtParams params;
      params.n_rounds = 60;
      params.learning_rate = 0.3;
      params.max_depth = 6;
      params.lambda = 1.0;
      return std::make_unique<ml::GradientBoosting>(params);
    }
    case ModelKind::kRidge: {
      ml::RidgeParams params;
      params.lambda = 10.0;  // wide feature vectors need a firm penalty
      return std::make_unique<ml::RidgeRegressor>(params);
    }
  }
  VARPRED_CHECK_ARG(false, "unknown model kind");
}

}  // namespace varpred::core
