#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/thread_pool.hpp"
#include "obs/obs.hpp"

namespace varpred::ml {

RandomForest::RandomForest(ForestParams params) : params_(params) {
  VARPRED_CHECK_ARG(params_.n_trees >= 1, "need at least one tree");
  VARPRED_CHECK_ARG(
      params_.feature_fraction > 0.0 && params_.feature_fraction <= 1.0,
      "feature_fraction must be in (0, 1]");
}

void RandomForest::fit(const Matrix& x, const Matrix& y,
                       const SortedColumns* presorted) {
  VARPRED_CHECK_ARG(x.rows() == y.rows(), "X/Y row count mismatch");
  VARPRED_CHECK_ARG(x.rows() >= 1, "need at least one training row");
  VARPRED_CHECK_ARG(presorted == nullptr ||
                        (presorted->cols() == x.cols() &&
                         presorted->row_count() == x.rows()),
                    "presorted artifact does not match training matrix");
  obs::Span span("ml.forest.fit");
  VARPRED_OBS_COUNT("ml.forest.fits", 1);
  VARPRED_OBS_COUNT("ml.forest.trees_trained", params_.n_trees);
  n_outputs_ = y.cols();

  TreeParams tp = params_.tree;
  if (params_.feature_fraction < 1.0) {
    tp.max_features = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(params_.feature_fraction *
                            static_cast<double>(x.cols()))));
  }

  // When splits consider all features, trees can run in column-segment mode
  // (see RegressionTree::fit_rows): build the dataset-level orders once —
  // or take the caller's artifact — and load each bootstrap sample's
  // column segments from them by a linear filter instead of per-node sorts.
  const bool all_features = tp.max_features == 0 || tp.max_features >= x.cols();
  SortedColumns own;
  const SortedColumns* base = nullptr;
  if (all_features && x.rows() >= 2) {
    if (presorted != nullptr) {
      base = presorted;
      VARPRED_OBS_COUNT("ml.forest.presort_reused", 1);
    } else {
      own = SortedColumns::build(x);
      base = &own;
    }
  }

  // The scans of every tree read feature values from one shared
  // column-major copy of x, released when the fit returns.
  const Matrix columns = x.transposed();

  trees_.assign(params_.n_trees, RegressionTree(tp));
  const std::size_t n = x.rows();
  parallel_for(params_.n_trees, [&](std::size_t t) {
    Rng rng(seed_combine(params_.seed, t));
    RegressionTree tree(tp);
    // Per-tree seed for the split-time feature subsampling as well.
    TreeParams tree_params = tp;
    tree_params.seed = seed_combine(params_.seed, t * 2 + 1);
    tree = RegressionTree(tree_params);

    std::vector<std::size_t> rows(n);
    if (params_.bootstrap) {
      for (auto& r : rows) r = rng.uniform_index(n);
      std::sort(rows.begin(), rows.end());  // determinism & cache locality
      if (base != nullptr) {
        tree.fit_rows(x, y, rows, ColumnSegments(*base, rows), &columns);
      } else {
        tree.fit_rows(x, y, rows, nullptr, &columns);
      }
    } else {
      std::iota(rows.begin(), rows.end(), std::size_t{0});
      tree.fit_rows(x, y, rows, base, &columns);
    }
    trees_[t] = std::move(tree);
  });
}

std::vector<double> RandomForest::predict(std::span<const double> row) const {
  VARPRED_CHECK(trained(), "predict before fit");
  std::vector<double> out(n_outputs_, 0.0);
  for (const auto& tree : trees_) {
    const auto p = tree.predict(row);
    for (std::size_t c = 0; c < n_outputs_; ++c) out[c] += p[c];
  }
  const double inv = 1.0 / static_cast<double>(trees_.size());
  for (auto& v : out) v *= inv;
  return out;
}

std::unique_ptr<Regressor> RandomForest::clone() const {
  return std::make_unique<RandomForest>(*this);
}

}  // namespace varpred::ml
