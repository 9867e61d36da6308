#include "ml/forest.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"

namespace varpred::ml {

RandomForest::RandomForest(ForestParams params) : params_(params) {
  VARPRED_CHECK_ARG(params_.n_trees >= 1, "need at least one tree");
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

  // Build the dataset-level orders once — or take the caller's artifact —
  // and load each bootstrap sample's column segments from them by a linear
  // filter.
  SortedColumns own;
  if (presorted != nullptr) {
    VARPRED_OBS_COUNT("ml.forest.presort_reused", 1);
  } else {
    own = SortedColumns::build(x);
    presorted = &own;
  }

  // The scans of every tree read feature values from one shared
  // column-major copy of x, released when the fit returns.
  const Matrix columns = x.transposed();

  trees_.assign(params_.n_trees, RegressionTree(params_.tree));
  const std::size_t n = x.rows();
  parallel_for(params_.n_trees, [&](std::size_t t) {
    Rng rng(seed_combine(params_.seed, t));
    std::vector<std::size_t> rows(n);
    for (auto& r : rows) r = rng.uniform_index(n);
    std::sort(rows.begin(), rows.end());  // determinism & cache locality
    trees_[t].fit_rows(x, y, rows, ColumnSegments(*presorted, rows),
                       &columns);
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
