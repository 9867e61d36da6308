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

void RandomForest::set_presorted(std::shared_ptr<const SortedColumns> cols) {
  presorted_hint_ = std::move(cols);
}

void RandomForest::set_binned(std::shared_ptr<const BinnedColumns> bins) {
  binned_hint_ = std::move(bins);
}

void RandomForest::fit(const Matrix& x, const Matrix& y) {
  VARPRED_CHECK_ARG(x.rows() == y.rows(), "X/Y row count mismatch");
  VARPRED_CHECK_ARG(x.rows() >= 1, "need at least one training row");
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
  // or take the caller's shared artifact — and derive each bootstrap
  // sample's orders by a linear filter instead of per-node sorts.
  // Take the hint eagerly: it applies to this fit only, even when the fit
  // fails validation below.
  const std::shared_ptr<const SortedColumns> hint = std::move(presorted_hint_);
  presorted_hint_.reset();
  const std::shared_ptr<const BinnedColumns> binned_hint =
      std::move(binned_hint_);
  binned_hint_.reset();

  // A supplied hint is validated whenever the all-features regime would
  // consume it — the binned path must not silently launder a mismatched
  // artifact the exact path would reject.
  const bool all_features = tp.max_features == 0 || tp.max_features >= x.cols();
  if (all_features && x.rows() >= 2 && hint != nullptr) {
    VARPRED_CHECK_ARG(hint->cols() == x.cols() &&
                          hint->row_count() == x.rows(),
                      "presorted artifact does not match training matrix");
  }

  // Histogram-binned mode (runtime-gated, size-dispatched): one
  // dataset-level BinnedColumns artifact shared by every tree. It covers
  // both the all-features and feature-subset regimes, so no per-tree
  // filtered sorted artifacts are needed at all. Self-building applies the
  // auto profitability threshold; a caller-supplied artifact is consumed
  // at any size (the caller already paid for it) unless the oracle is
  // pinned.
  std::shared_ptr<const BinnedColumns> bins;
  if (tree_binned_enabled() && x.rows() >= 2 && binned_hint != nullptr) {
    VARPRED_CHECK_ARG(binned_hint->cols() == x.cols() &&
                          binned_hint->row_count() == x.rows(),
                      "binned artifact does not match training matrix");
    bins = binned_hint;
    VARPRED_OBS_COUNT("ml.forest.binned_reused", 1);
  } else if (tree_binned_profitable(x.rows()) && x.rows() >= 2) {
    if (all_features && hint != nullptr) {
      bins = std::make_shared<const BinnedColumns>(
          BinnedColumns::build(x, *hint));
    } else {
      bins = std::make_shared<const BinnedColumns>(BinnedColumns::build(x));
    }
  }

  std::shared_ptr<const SortedColumns> base;
  if (bins == nullptr && all_features && x.rows() >= 2) {
    if (hint != nullptr) {
      base = hint;
      VARPRED_OBS_COUNT("ml.forest.presort_reused", 1);
    } else {
      base = std::make_shared<const SortedColumns>(SortedColumns::build(x));
    }
  }

  // The exact scans of every tree read feature values from one shared
  // column-major copy of x, released when the fit returns.
  Matrix columns;
  if (bins == nullptr) columns = x.transposed();
  const Matrix* shared_columns = bins == nullptr ? &columns : nullptr;

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
      if (bins != nullptr) {
        tree.fit_rows(x, y, rows, nullptr, bins.get());
      } else if (base != nullptr) {
        const SortedColumns sample = base->filtered(rows, /*remap=*/false);
        tree.fit_rows(x, y, rows, &sample, nullptr, shared_columns);
      } else {
        tree.fit_rows(x, y, rows, nullptr, nullptr, shared_columns);
      }
    } else {
      std::iota(rows.begin(), rows.end(), std::size_t{0});
      tree.fit_rows(x, y, rows, base.get(), bins.get(), shared_columns);
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
