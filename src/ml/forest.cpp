#include "ml/forest.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"

namespace varpred::ml {

RandomForest::RandomForest(ForestParams params) : params_(params) {
  VARPRED_CHECK_ARG(params_.n_trees >= 1, "need at least one tree");
}

void RandomForest::for_each_bootstrap(
    const Matrix& x, const Matrix& y, const SortedColumns* presorted,
    const std::function<void(std::size_t, std::span<const std::size_t>,
                             ColumnSegments, const Matrix&)>& grow) const {
  VARPRED_CHECK_ARG(x.rows() == y.rows(), "X/Y row count mismatch");
  VARPRED_CHECK_ARG(x.rows() >= 1, "need at least one training row");
  VARPRED_CHECK_ARG(presorted == nullptr ||
                        (presorted->cols() == x.cols() &&
                         presorted->row_count() == x.rows()),
                    "presorted artifact does not match training matrix");
  VARPRED_OBS_COUNT("ml.forest.fits", 1);
  VARPRED_OBS_COUNT("ml.forest.trees_trained", params_.n_trees);

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

  const std::size_t n = x.rows();
  parallel_for(params_.n_trees, [&](std::size_t t) {
    Rng rng(seed_combine(params_.seed, t));
    std::vector<std::size_t> rows(n);
    for (auto& r : rows) r = rng.uniform_index(n);
    std::sort(rows.begin(), rows.end());  // determinism & cache locality
    grow(t, rows, ColumnSegments(*presorted, rows), columns);
  });
}

void RandomForest::fit(const Matrix& x, const Matrix& y,
                       const SortedColumns* presorted) {
  obs::Span span("ml.forest.fit");
  std::vector<RegressionTree> trees(params_.n_trees,
                                    RegressionTree(params_.tree));
  for_each_bootstrap(x, y, presorted,
                     [&](std::size_t t, std::span<const std::size_t> rows,
                         ColumnSegments segments, const Matrix& columns) {
                       trees[t].fit_rows(x, y, rows, std::move(segments),
                                         &columns);
                     });
  trees_ = std::move(trees);
  n_outputs_ = y.cols();
}

std::vector<double> RandomForest::fit_predict(const Matrix& x,
                                              const Matrix& y,
                                              const SortedColumns* presorted,
                                              std::span<const double> query) {
  VARPRED_CHECK_ARG(query.size() == x.cols(),
                    "query width does not match training matrix");
  obs::Span span("ml.forest.fit_predict");
  // The trees are grown only toward this query, so none is kept.
  trees_.clear();
  n_outputs_ = 0;
  const std::size_t n_outputs = y.cols();
  std::vector<double> leaves(params_.n_trees * n_outputs);
  for_each_bootstrap(
      x, y, presorted,
      [&](std::size_t t, std::span<const std::size_t> rows,
          ColumnSegments segments, const Matrix& columns) {
        RegressionTree tree(params_.tree);
        tree.fit_rows_predict(
            x, y, rows, std::move(segments), &columns, query,
            std::span(leaves).subspan(t * n_outputs, n_outputs));
      });
  // predict's arithmetic: leaf values summed in tree order, then scaled.
  std::vector<double> out(n_outputs, 0.0);
  for (std::size_t t = 0; t < params_.n_trees; ++t) {
    for (std::size_t c = 0; c < n_outputs; ++c) {
      out[c] += leaves[t * n_outputs + c];
    }
  }
  const double inv = 1.0 / static_cast<double>(params_.n_trees);
  for (auto& v : out) v *= inv;
  return out;
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
