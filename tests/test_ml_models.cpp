// Tests for the three regressors (kNN, random forest, gradient boosting):
// exact-fit sanity, generalization on synthetic functions, determinism,
// multi-output behaviour, and a parameterized cross-model sweep.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "core/evalcache.hpp"
#include "core/models.hpp"
#include "io/serialize.hpp"
#include "measure/corpus.hpp"
#include "ml/forest.hpp"
#include "ml/gbt.hpp"
#include "ml/knn.hpp"
#include "ml/metrics.hpp"
#include "ml/ridge.hpp"
#include "ml/sorted_columns.hpp"
#include "ml/tree.hpp"
#include "obs/obs.hpp"

namespace varpred::ml {
namespace {

// Synthetic regression problem: y0 = 2*x0 + x1^2, y1 = sin-free smooth mix.
struct Problem {
  Matrix x_train;
  Matrix y_train;
  Matrix x_test;
  Matrix y_test;
};

Problem make_problem(std::size_t n_train, std::size_t n_test,
                     std::uint64_t seed, double noise = 0.0) {
  Rng rng(seed);
  auto make = [&](std::size_t n, Matrix& x, Matrix& y) {
    x = Matrix(n, 3);
    y = Matrix(n, 2);
    for (std::size_t r = 0; r < n; ++r) {
      const double a = rng.uniform(-1.0, 1.0);
      const double b = rng.uniform(-1.0, 1.0);
      const double c = rng.uniform(-1.0, 1.0);
      x(r, 0) = a;
      x(r, 1) = b;
      x(r, 2) = c;
      y(r, 0) = 2.0 * a + b * b + noise * rng.uniform(-1.0, 1.0);
      y(r, 1) = a * b + 0.5 * c + noise * rng.uniform(-1.0, 1.0);
    }
  };
  Problem p;
  make(n_train, p.x_train, p.y_train);
  make(n_test, p.x_test, p.y_test);
  return p;
}

// FNV-1a over the little-endian bytes of the bit pattern of every
// prediction `model` makes for the rows of `queries`.
std::uint64_t prediction_digest(const Regressor& model, const Matrix& queries) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t r = 0; r < queries.rows(); ++r) {
    for (const double v : model.predict(queries.row(r))) {
      const auto bits = std::bit_cast<std::uint64_t>(v);
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (bits >> (8 * byte)) & 0xFFU;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

TEST(Knn, ExactNeighborRecovery) {
  // With k=1 and train points far apart, prediction equals nearest target.
  const auto x = Matrix::from_rows({{0, 0}, {10, 0}, {0, 10}});
  const auto y = Matrix::from_rows({{1, -1}, {2, -2}, {3, -3}});
  KnnParams params;
  params.k = 1;
  params.metric = Metric::kEuclidean;
  params.standardize = false;
  KnnRegressor knn(params);
  knn.fit(x, y);
  const auto p = knn.predict(std::vector<double>{9.0, 1.0});
  EXPECT_DOUBLE_EQ(p[0], 2.0);
  EXPECT_DOUBLE_EQ(p[1], -2.0);
}

TEST(Knn, AveragesKNeighbors) {
  const auto x = Matrix::from_rows({{0.0}, {1.0}, {100.0}});
  const auto y = Matrix::from_rows({{0.0}, {2.0}, {50.0}});
  KnnParams params;
  params.k = 2;
  params.metric = Metric::kEuclidean;
  params.standardize = false;
  KnnRegressor knn(params);
  knn.fit(x, y);
  const auto p = knn.predict(std::vector<double>{0.4});
  EXPECT_DOUBLE_EQ(p[0], 1.0);  // mean of 0 and 2
}

TEST(Knn, CosineIsScaleInvariant) {
  // Under cosine distance (without standardization), scaled copies of a
  // vector are identical.
  const auto x = Matrix::from_rows({{1.0, 2.0}, {-3.0, 1.0}});
  const auto y = Matrix::from_rows({{1.0}, {2.0}});
  KnnParams params;
  params.k = 1;
  params.metric = Metric::kCosine;
  params.standardize = false;
  KnnRegressor knn(params);
  knn.fit(x, y);
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{10.0, 20.0})[0], 1.0);
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{0.1, 0.2})[0], 1.0);
}

TEST(Knn, KLargerThanTrainingSetIsClamped) {
  const auto x = Matrix::from_rows({{0.0}, {1.0}});
  const auto y = Matrix::from_rows({{2.0}, {4.0}});
  KnnParams params;
  params.k = 15;
  KnnRegressor knn(params);
  knn.fit(x, y);
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{0.5})[0], 3.0);
}

TEST(Knn, NeighborsSortedByDistance) {
  const auto x = Matrix::from_rows({{5.0}, {1.0}, {3.0}});
  const auto y = Matrix::from_rows({{0.0}, {0.0}, {0.0}});
  KnnParams params;
  params.k = 3;
  params.metric = Metric::kEuclidean;
  params.standardize = false;
  KnnRegressor knn(params);
  knn.fit(x, y);
  const auto nn = knn.neighbors(std::vector<double>{0.0});
  EXPECT_EQ(nn, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(Knn, ZeroNormCosineQueryUsesStableIndexTieBreak) {
  // S3: a zero-norm query under cosine distance puts every training row at
  // exactly 1.0. The documented tie-break (ascending row index) must make
  // the neighbor set and the prediction deterministic.
  const auto x = Matrix::from_rows({{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 1}});
  const auto y = Matrix::from_rows({{10}, {20}, {30}, {40}, {50}});
  KnnParams params;
  params.k = 3;
  params.metric = Metric::kCosine;
  params.standardize = false;
  KnnRegressor knn(params);
  knn.fit(x, y);
  const std::vector<double> zero = {0.0, 0.0};
  EXPECT_EQ(knn.neighbors(zero), (std::vector<std::size_t>{0, 1, 2}));
  // Uniform weighting averages the first k targets.
  EXPECT_DOUBLE_EQ(knn.predict(zero)[0], 20.0);
  // Distance weighting is uniform too (all weights 1/(1 + 1e-9)).
  KnnParams wp = params;
  wp.weighting = KnnWeighting::kDistance;
  KnnRegressor wknn(wp);
  wknn.fit(x, y);
  EXPECT_NEAR(wknn.predict(zero)[0], 20.0, 1e-9);
}

TEST(Tree, FitsConstantTarget) {
  const auto x = Matrix::from_rows({{1}, {2}, {3}});
  const auto y = Matrix::from_rows({{7}, {7}, {7}});
  RegressionTree tree;
  tree.fit(x, y);
  EXPECT_EQ(tree.leaf_count(), 1u);  // pure node: no split
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{1.5})[0], 7.0);
}

TEST(Tree, LearnsAStepFunctionExactly) {
  Matrix x(20, 1);
  Matrix y(20, 1);
  for (int i = 0; i < 20; ++i) {
    x(i, 0) = i;
    y(i, 0) = i < 10 ? -1.0 : 1.0;
  }
  RegressionTree tree;
  tree.fit(x, y);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{3.0})[0], -1.0);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{15.0})[0], 1.0);
  EXPECT_EQ(tree.leaf_count(), 2u);
}

TEST(Tree, RespectsMaxDepth) {
  Matrix x(64, 1);
  Matrix y(64, 1);
  Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    x(i, 0) = i;
    y(i, 0) = rng.uniform();
  }
  TreeParams params;
  params.max_depth = 3;
  RegressionTree tree(params);
  tree.fit(x, y);
  EXPECT_LE(tree.depth(), 3u);
  EXPECT_LE(tree.leaf_count(), 8u);
}

TEST(Tree, RespectsMinSamplesLeaf) {
  Matrix x(30, 1);
  Matrix y(30, 1);
  for (int i = 0; i < 30; ++i) {
    x(i, 0) = i;
    y(i, 0) = i;  // forces many splits if unconstrained
  }
  TreeParams params;
  params.max_depth = 32;
  params.min_samples_leaf = 5;
  RegressionTree tree(params);
  tree.fit(x, y);
  EXPECT_LE(tree.leaf_count(), 6u);  // 30 / 5
}

TEST(Tree, MultiOutputSplitsJointly) {
  const auto p = make_problem(300, 100, 11);
  TreeParams params;
  params.max_depth = 8;
  RegressionTree tree(params);
  tree.fit(p.x_train, p.y_train);
  const auto pred = tree.predict_batch(p.x_test);
  EXPECT_GT(r2(p.y_test.col(0), pred.col(0)), 0.7);
  EXPECT_GT(r2(p.y_test.col(1), pred.col(1)), 0.5);
}

// Quantized features create many tied values, which is where the segment
// scans would go wrong if the tie-break or partition stability were wrong.
Problem make_tied_problem(std::size_t n_train, std::size_t n_test,
                          std::uint64_t seed) {
  Problem p = make_problem(n_train, n_test, seed, /*noise=*/0.2);
  auto quantize = [](Matrix& m) {
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) {
        m(r, c) = std::floor(m(r, c) * 4.0) / 4.0;
      }
    }
  };
  quantize(p.x_train);
  quantize(p.x_test);
  return p;
}

// Eleven quantized features, so the GBT's lockstep column-segment scan
// runs two groups of four plus a three-feature scalar tail. Training
// columns 3 = 1 (inside the first group), 5 = 2 (across the first group
// boundary) and 9 = 6 (from the second group into the tail) are
// bit-identical, so their split gains tie exactly and the earlier feature
// must win, as in a one-feature-at-a-time scan. The test rows draw those
// columns independently: a split on the later twin predicts differently.
Problem make_wide_tied_problem(std::size_t n_train, std::size_t n_test,
                               std::uint64_t seed) {
  Problem p = make_tied_problem(n_train, n_test, seed);
  Rng rng(seed + 1);
  const auto widen = [&](Matrix& x, Matrix& y, bool twins) {
    Matrix wide(x.rows(), 11);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      for (std::size_t c = 0; c < 11; ++c) {
        wide(r, c) = c < 3 ? x(r, c)
                           : std::floor(rng.uniform(-1.0, 1.0) * 4.0) / 4.0;
      }
      if (twins) {
        wide(r, 3) = wide(r, 1);
        wide(r, 5) = wide(r, 2);
        wide(r, 9) = wide(r, 6);
      }
      y(r, 0) += wide(r, 6);
    }
    x = std::move(wide);
  };
  widen(p.x_train, p.y_train, /*twins=*/true);
  widen(p.x_test, p.y_test, /*twins=*/false);
  return p;
}

// The sort-path tests below pin constants recorded from the per-node sort
// path the split search used to keep as its oracle, on both dispatch arms,
// before that path was deleted: the segment scans must still answer
// exactly what a fresh sort of every node's rows answered.

TEST(Tree, PresortedSegmentModeIsByteIdenticalToSortPath) {
  // Fitting with a dataset-level SortedColumns artifact (segment scans +
  // stable partitions), or with the artifact the fit builds itself, must
  // produce exactly the tree the per-node sorts produced.
  const auto p = make_tied_problem(200, 60, 41);
  TreeParams params;
  params.max_depth = 8;
  RegressionTree presorted(params);
  const SortedColumns sorted = SortedColumns::build(p.x_train);
  presorted.fit(p.x_train, p.y_train, &sorted);
  EXPECT_EQ(presorted.leaf_count(), 121U);
  EXPECT_EQ(presorted.depth(), 8U);
  EXPECT_EQ(prediction_digest(presorted, p.x_test), 0x3e5416f4706b0f80ULL);
  RegressionTree own(params);
  own.fit(p.x_train, p.y_train);
  EXPECT_EQ(prediction_digest(own, p.x_test), 0x3e5416f4706b0f80ULL);
}

TEST(Tree, FilteredBootstrapArtifactIsByteIdenticalToSortPath) {
  // fit_rows over a duplicated (bootstrap) sample: the counted filter of the
  // dataset artifact must reproduce the per-node sorts of the sample.
  const auto p = make_tied_problem(120, 40, 43);
  const auto base = SortedColumns::build(p.x_train);
  Rng rng(77);
  std::vector<std::size_t> rows(p.x_train.rows());
  for (auto& r : rows) r = rng.uniform_index(p.x_train.rows());
  std::sort(rows.begin(), rows.end());
  TreeParams params;
  params.max_depth = 8;
  RegressionTree tree(params);
  tree.fit_rows(p.x_train, p.y_train, rows, ColumnSegments(base, rows));
  EXPECT_EQ(tree.leaf_count(), 68U);
  EXPECT_EQ(prediction_digest(tree, p.x_test), 0x115dd6b9a8105055ULL);
}

// The presorted orders of a 10-row matrix with `cols` columns: an artifact
// that matches no training matrix in these tests.
SortedColumns mismatched_artifact(std::size_t cols) {
  Matrix other(10, cols);
  for (std::size_t r = 0; r < 10; ++r) {
    for (std::size_t c = 0; c < cols; ++c) other(r, c) = double(r + c);
  }
  return SortedColumns::build(other);
}

// The presorted orders of x without its last column: right row count, wrong
// column count.
SortedColumns narrow_artifact(const Matrix& x) {
  Matrix narrow(x.rows(), x.cols() - 1);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < narrow.cols(); ++c) narrow(r, c) = x(r, c);
  }
  return SortedColumns::build(narrow);
}

TEST(Tree, RejectsMismatchedPresortedArtifact) {
  const auto p = make_problem(50, 5, 47);
  RegressionTree tree;
  // Artifact over a different row count than the fit sample.
  const SortedColumns other = mismatched_artifact(p.x_train.cols());
  EXPECT_THROW(tree.fit(p.x_train, p.y_train, &other), std::invalid_argument);
}

TEST(Tree, RejectsArtifactWithWrongColumnCount) {
  // Right row count, one column short: still not the artifact of x.
  const auto p = make_problem(50, 5, 47);
  const SortedColumns other = narrow_artifact(p.x_train);
  RegressionTree tree;
  EXPECT_THROW(tree.fit(p.x_train, p.y_train, &other), std::invalid_argument);
}

TEST(Forest, OutperformsOrMatchesSingleTreeOnNoisyData) {
  const auto p = make_problem(300, 200, 13, /*noise=*/0.3);
  TreeParams tp;
  tp.max_depth = 8;
  RegressionTree tree(tp);
  tree.fit(p.x_train, p.y_train);
  const auto tree_pred = tree.predict_batch(p.x_test);
  const double tree_r2 = r2(p.y_test.col(0), tree_pred.col(0));

  ForestParams fp;
  fp.n_trees = 60;
  fp.tree.max_depth = 8;
  fp.seed = 21;
  RandomForest forest(fp);
  forest.fit(p.x_train, p.y_train);
  const auto forest_pred = forest.predict_batch(p.x_test);
  const double forest_r2 = r2(p.y_test.col(0), forest_pred.col(0));

  EXPECT_GT(forest_r2, 0.75);
  EXPECT_GE(forest_r2, tree_r2 - 0.02);
}

TEST(Forest, DeterministicAcrossFits) {
  const auto p = make_problem(100, 10, 17);
  ForestParams fp;
  fp.n_trees = 20;
  fp.seed = 5;
  RandomForest a(fp);
  RandomForest b(fp);
  a.fit(p.x_train, p.y_train);
  b.fit(p.x_train, p.y_train);
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(a.predict(p.x_test.row(r)), b.predict(p.x_test.row(r)));
  }
}

TEST(Forest, SharedPresortedArtifactIsByteIdentical) {
  // A caller-provided dataset artifact (the evaluator's fold cache) must not
  // change a single prediction relative to the forest building its own.
  const auto p = make_tied_problem(150, 40, 53);
  ForestParams fp;
  fp.n_trees = 25;
  fp.tree.max_depth = 8;
  fp.seed = 11;
  RandomForest own(fp);
  own.fit(p.x_train, p.y_train);
  RandomForest shared(fp);
  const SortedColumns sorted = SortedColumns::build(p.x_train);
  shared.fit(p.x_train, p.y_train, &sorted);
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(own.predict(p.x_test.row(r)), shared.predict(p.x_test.row(r)))
        << "row " << r;
  }
}

TEST(Forest, RejectsMismatchedPresortedArtifact) {
  // Also on a single training row, where every tree is one leaf.
  const auto p = make_problem(50, 5, 47);
  ForestParams fp;
  fp.n_trees = 3;
  const SortedColumns other = mismatched_artifact(p.x_train.cols());
  RandomForest forest(fp);
  EXPECT_THROW(forest.fit(p.x_train, p.y_train, &other),
               std::invalid_argument);
  const std::vector<std::size_t> first = {0};
  const Matrix one_x = p.x_train.gather_rows(first);
  const Matrix one_y = p.y_train.gather_rows(first);
  RandomForest single(fp);
  EXPECT_THROW(single.fit(one_x, one_y, &other), std::invalid_argument);
}

TEST(Forest, SingleRowFitPredictsItsTarget) {
  // Every bootstrap sample of one row is that row, once: each tree is a
  // leaf holding its target, whatever the query.
  const auto p = make_problem(4, 3, 49);
  const std::vector<std::size_t> first = {0};
  ForestParams fp;
  fp.n_trees = 4;
  RandomForest forest(fp);
  forest.fit(p.x_train.gather_rows(first), p.y_train.gather_rows(first));
  const auto target = p.y_train.row(0);
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    const auto pred = forest.predict(p.x_test.row(r));
    ASSERT_EQ(pred.size(), target.size());
    for (std::size_t c = 0; c < pred.size(); ++c) {
      EXPECT_DOUBLE_EQ(pred[c], target[c]) << "row " << r;
    }
  }
}

TEST(Forest, RejectsArtifactWithWrongColumnCount) {
  const auto p = make_problem(50, 5, 47);
  ForestParams fp;
  fp.n_trees = 3;
  RandomForest forest(fp);
  const SortedColumns other = narrow_artifact(p.x_train);
  EXPECT_THROW(forest.fit(p.x_train, p.y_train, &other),
               std::invalid_argument);
}

TEST(Gbt, SegmentModeIsByteIdenticalToSortPath) {
  // The column-segment scans must answer what the per-node sorts answered:
  // on 3 features (scalar scans only), and on 11 features, where the
  // segment scans run four features per step plus the scalar tail.
  GbtParams gp;
  gp.n_rounds = 40;
  const auto tied = make_tied_problem(150, 40, 61);
  GradientBoosting a(gp);
  a.fit(tied.x_train, tied.y_train);
  EXPECT_EQ(prediction_digest(a, tied.x_test), 0xf8fdd76206410937ULL);
  gp.min_child_weight = 3.0;
  gp.gamma = 0.01;
  const auto wide = make_wide_tied_problem(150, 40, 63);
  GradientBoosting b(gp);
  b.fit(wide.x_train, wide.y_train);
  EXPECT_EQ(prediction_digest(b, wide.x_test), 0x8f234e20dc3d9201ULL);
}

TEST(Gbt, EqualGainsWithinAFeatureKeepTheFirstSplit) {
  // Feature 2 is the row number and the target is symmetric with integer
  // sums, so the splits after row 2 and after row 6 have bit-identical
  // gains (a + b == b + a). The first must win, as it did on the per-node
  // sort path; the other three features are constant, so the lockstep scan
  // runs one group of four with the tie in lane 2.
  Matrix x(8, 4, 0.0);
  Matrix y(8, 1);
  const double target[8] = {1, 1, -1, -1, -1, -1, 1, 1};
  for (std::size_t r = 0; r < 8; ++r) {
    x(r, 2) = static_cast<double>(r);
    y(r, 0) = target[r];
  }
  GbtParams gp;
  gp.n_rounds = 1;
  gp.learning_rate = 1.0;
  gp.max_depth = 1;
  GradientBoosting a(gp);
  a.fit(x, y);
  EXPECT_EQ(prediction_digest(a, x), 0xcc09bc14ab168c6dULL);
  // The stump splits at 1.5: rows 2..7 share one leaf.
  EXPECT_EQ(a.predict(x.row(2)), a.predict(x.row(7)));
  EXPECT_NE(a.predict(x.row(1)), a.predict(x.row(2)));
}

TEST(Gbt, SharedPresortedArtifactIsByteIdentical) {
  const auto p = make_tied_problem(150, 40, 71);
  GbtParams gp;
  gp.n_rounds = 30;
  GradientBoosting own(gp);
  own.fit(p.x_train, p.y_train);
  GradientBoosting shared(gp);
  const SortedColumns sorted = SortedColumns::build(p.x_train);
  shared.fit(p.x_train, p.y_train, &sorted);
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(own.predict(p.x_test.row(r)), shared.predict(p.x_test.row(r)))
        << "row " << r;
  }
  // Mismatched artifacts are rejected.
  GradientBoosting bad(gp);
  Matrix other(10, 2);
  for (std::size_t r = 0; r < 10; ++r) {
    other(r, 0) = static_cast<double>(r);
    other(r, 1) = static_cast<double>(10 - r);
  }
  const SortedColumns other_sorted = SortedColumns::build(other);
  EXPECT_THROW(bad.fit(p.x_train, p.y_train, &other_sorted),
               std::invalid_argument);
}

TEST(Gbt, RejectsArtifactWithWrongColumnCount) {
  const auto p = make_problem(50, 5, 47);
  GbtParams gp;
  gp.n_rounds = 3;
  GradientBoosting gbt(gp);
  const SortedColumns other = narrow_artifact(p.x_train);
  EXPECT_THROW(gbt.fit(p.x_train, p.y_train, &other), std::invalid_argument);
}

TEST(Gbt, SingleRowFitPredictsItsTarget) {
  // One training row: the base score is its target, so every gradient is
  // zero and every tree is one leaf of weight zero, whatever the query.
  const auto p = make_problem(4, 3, 51);
  const std::vector<std::size_t> first = {0};
  GbtParams gp;
  gp.n_rounds = 5;
  GradientBoosting gbt(gp);
  gbt.fit(p.x_train.gather_rows(first), p.y_train.gather_rows(first));
  const auto target = p.y_train.row(0);
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    const auto pred = gbt.predict(p.x_test.row(r));
    ASSERT_EQ(pred.size(), target.size());
    for (std::size_t c = 0; c < pred.size(); ++c) {
      EXPECT_DOUBLE_EQ(pred[c], target[c]) << "row " << r;
    }
  }
}

TEST(Gbt, FitsTrainingDataClosely) {
  const auto p = make_problem(200, 50, 19);
  GbtParams gp;
  gp.n_rounds = 150;
  gp.learning_rate = 0.2;
  GradientBoosting gbt(gp);
  gbt.fit(p.x_train, p.y_train);
  const auto pred = gbt.predict_batch(p.x_train);
  EXPECT_GT(r2(p.y_train.col(0), pred.col(0)), 0.97);
}

TEST(Gbt, GeneralizesOnSmoothFunction) {
  const auto p = make_problem(400, 200, 23, /*noise=*/0.1);
  GradientBoosting gbt;  // defaults
  gbt.fit(p.x_train, p.y_train);
  const auto pred = gbt.predict_batch(p.x_test);
  EXPECT_GT(r2(p.y_test.col(0), pred.col(0)), 0.8);
  EXPECT_GT(r2(p.y_test.col(1), pred.col(1)), 0.6);
}

TEST(Gbt, ShrinkageReducesOverfitVsSingleBigStep) {
  const auto p = make_problem(150, 150, 29, /*noise=*/0.4);
  GbtParams fast;
  fast.n_rounds = 5;
  fast.learning_rate = 1.0;
  GbtParams slow;
  slow.n_rounds = 100;
  slow.learning_rate = 0.1;
  GradientBoosting a(fast);
  GradientBoosting b(slow);
  a.fit(p.x_train, p.y_train);
  b.fit(p.x_train, p.y_train);
  const double r2_fast = r2(p.y_test.col(0), a.predict_batch(p.x_test).col(0));
  const double r2_slow = r2(p.y_test.col(0), b.predict_batch(p.x_test).col(0));
  EXPECT_GE(r2_slow, r2_fast - 0.02);
}

// Golden fold fits: the shipped RF and XGBoost models on one 4-output
// training fold (use case 1, PearsonRnd) and one 40-output fold (use case 2,
// amd -> intel histogram), assembled from the evaluation caches the LOGO
// evaluators use. The digest covers the bit patterns of every prediction
// over the full feature table (training rows and the held-out benchmark).
// Any change to the split search's floating-point operations or their order
// shows up here; a speed-up must pass with these constants unchanged.
struct GoldenFold {
  Matrix x;
  Matrix y;
  SortedColumns presorted;
  Matrix queries;
};

constexpr std::size_t kGoldenRuns = 40;
constexpr std::size_t kGoldenHeldOut = 22;

std::vector<std::size_t> all_but(std::size_t n, std::size_t held_out) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (i != held_out) out.push_back(i);
  }
  return out;
}

const measure::Corpus& golden_intel() {
  static const measure::Corpus corpus = measure::build_corpus(
      measure::SystemModel::intel(), kGoldenRuns, 7);
  return corpus;
}

const measure::Corpus& golden_amd() {
  static const measure::Corpus corpus =
      measure::build_corpus(measure::SystemModel::amd(), kGoldenRuns, 7);
  return corpus;
}

GoldenFold uc1_pearson_fold() {
  const auto& corpus = golden_intel();
  core::FewRunsConfig config;
  config.repr = core::ReprKind::kPearson;
  config.model = core::ModelKind::kRandomForest;  // a cache with a presort
  const auto cache = core::FewRunsEvalCache::build(corpus, config);
  const auto train = all_but(corpus.benchmarks.size(), kGoldenHeldOut);
  const auto rows = cache.rows_for(train);
  GoldenFold fold;
  fold.x = cache.features.gather_rows(rows);
  for (const std::size_t b : train) {
    for (std::size_t rep = 0; rep < cache.replicates; ++rep) {
      fold.y.push_row(cache.targets[b]);
    }
  }
  fold.presorted = cache.presorted->filtered(rows);
  fold.queries = cache.features;
  return fold;
}

GoldenFold uc2_histogram_fold() {
  const auto& amd = golden_amd();
  const auto& intel = golden_intel();
  core::CrossSystemConfig config;
  config.repr = core::ReprKind::kHistogram;
  config.model = core::ModelKind::kRandomForest;  // a cache with a presort
  const auto cache = core::CrossSystemEvalCache::build(amd, intel, config);
  const auto train = all_but(amd.benchmarks.size(), kGoldenHeldOut);
  GoldenFold fold;
  fold.x = cache.features.gather_rows(train);
  for (const std::size_t b : train) fold.y.push_row(cache.targets[b]);
  fold.presorted = cache.presorted->filtered(train);
  fold.queries = cache.features;
  return fold;
}

std::uint64_t golden_digest(const GoldenFold& fold, core::ModelKind kind) {
  auto model = core::make_model(kind, 1001);
  model->fit(fold.x, fold.y, &fold.presorted);
  return prediction_digest(*model, fold.queries);
}

TEST(GoldenFold, Uc1PearsonRandomForest) {
  const auto fold = uc1_pearson_fold();
  ASSERT_EQ(fold.y.cols(), 4U);
  EXPECT_EQ(golden_digest(fold, core::ModelKind::kRandomForest),
            0xbfb35dc3f73e52ebULL);
}

TEST(GoldenFold, Uc1PearsonXgBoost) {
  const auto fold = uc1_pearson_fold();
  EXPECT_EQ(golden_digest(fold, core::ModelKind::kXgBoost),
            0x18892af28992d303ULL);
}

TEST(GoldenFold, Uc2HistogramRandomForest) {
  const auto fold = uc2_histogram_fold();
  ASSERT_EQ(fold.y.cols(), 40U);
  EXPECT_EQ(golden_digest(fold, core::ModelKind::kRandomForest),
            0xc9de56c91668e924ULL);
}

TEST(GoldenFold, Uc2HistogramXgBoost) {
  const auto fold = uc2_histogram_fold();
  EXPECT_EQ(golden_digest(fold, core::ModelKind::kXgBoost),
            0x474737ef06fd4d36ULL);
}

// The root split (feature, threshold) of a trained forest's first tree, read
// back from the forest's saved record. The feature is -1 when that tree is
// a single leaf.
std::pair<double, double> first_root_split(const Regressor& forest) {
  std::stringstream record;
  forest.save(record);
  io::Reader header(record);
  header.tag("varpred.forest");
  for (const char* field :
       {"version", "n_trees", "seed", "n_outputs", "trained_trees"}) {
    header.u64(field);
  }
  io::Reader tree(record);
  tree.tag("varpred.tree");
  for (const char* field : {"version", "max_depth", "min_samples_leaf",
                            "min_samples_split", "n_outputs", "n_nodes"}) {
    tree.u64(field);
  }
  // Six values per node: feature, threshold, left, right, leaf offset, depth.
  const auto nodes = tree.vec("nodes");
  return {nodes.at(0), nodes.at(1)};
}

// fit_predict of the shipped forest against fit then predict, bit for bit:
// for the held-out row, 16 training rows, a training row moved exactly onto
// the first tree's root threshold (both arms must send it left) and the
// held-out row with that feature NaN (both must send it right). Each
// query-path forest keeps no trees and rejects a query of the wrong width.
void expect_fit_predict_matches(const Matrix& x, const Matrix& y,
                                const SortedColumns& presorted,
                                std::span<const double> held_out) {
  auto full = core::make_model(core::ModelKind::kRandomForest, 1001);
  full->fit(x, y, &presorted);
  const auto [feature, threshold] = first_root_split(*full);
  ASSERT_GE(feature, 0.0) << "the first tree is a single leaf";
  const auto f = static_cast<std::size_t>(feature);

  Matrix queries;
  queries.push_row(held_out);
  for (std::size_t i = 0; i < 16; ++i) {
    queries.push_row(x.row(i * x.rows() / 16));
  }
  std::vector<double> on_threshold(x.row(1).begin(), x.row(1).end());
  on_threshold[f] = threshold;
  queries.push_row(on_threshold);
  std::vector<double> nan_feature(held_out.begin(), held_out.end());
  nan_feature[f] = std::numeric_limits<double>::quiet_NaN();
  queries.push_row(nan_feature);

  for (std::size_t q = 0; q < queries.rows(); ++q) {
    auto lazy = core::make_model(core::ModelKind::kRandomForest, 1001);
    const auto got = lazy->fit_predict(x, y, &presorted, queries.row(q));
    const auto want = full->predict(queries.row(q));
    ASSERT_EQ(got.size(), y.cols());
    ASSERT_EQ(want.size(), y.cols());
    for (std::size_t c = 0; c < got.size(); ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[c]),
                std::bit_cast<std::uint64_t>(want[c]))
          << "query " << q << " output " << c;
    }
    EXPECT_FALSE(lazy->trained()) << "query " << q;
  }

  auto lazy = core::make_model(core::ModelKind::kRandomForest, 1001);
  lazy->fit_predict(x, y, &presorted, held_out);
  EXPECT_THROW(lazy->predict(held_out), CheckError);
  const std::vector<double> narrow(x.cols() - 1, 0.0);
  const std::vector<double> wide(x.cols() + 1, 0.0);
  EXPECT_THROW(lazy->fit_predict(x, y, &presorted, narrow),
               std::invalid_argument);
  EXPECT_THROW(lazy->fit_predict(x, y, &presorted, wide),
               std::invalid_argument);
}

TEST(GoldenFold, ForestFitPredictEqualsFitThenPredict) {
  const auto uc1 = uc1_pearson_fold();
  ASSERT_EQ(uc1.y.cols(), 4U);
  // Output 1 (the spread): output 0, the mean of relative times, is 1 in
  // every row, so its trees are single leaves.
  Matrix one_output(uc1.y.rows(), 1);
  for (std::size_t r = 0; r < uc1.y.rows(); ++r) {
    one_output(r, 0) = uc1.y(r, 1);
  }
  expect_fit_predict_matches(uc1.x, one_output, uc1.presorted,
                             uc1.queries.row(kGoldenHeldOut * 2));
  expect_fit_predict_matches(uc1.x, uc1.y, uc1.presorted,
                             uc1.queries.row(kGoldenHeldOut * 2));
  const auto uc2 = uc2_histogram_fold();
  ASSERT_EQ(uc2.y.cols(), 40U);
  expect_fit_predict_matches(uc2.x, uc2.y, uc2.presorted,
                             uc2.queries.row(kGoldenHeldOut));
}

// Learner work counters, read around one fit with observability on.
struct WorkCounts {
  std::uint64_t nodes_split = 0;
  std::uint64_t candidates_scored = 0;
  std::uint64_t rows_partitioned = 0;
};

WorkCounts count_work(const std::string& prefix,
                      const std::function<void()>& fit) {
  obs::set_mode(obs::Mode::kSummary);
  obs::Registry::global().reset_values();
  fit();
  auto& reg = obs::Registry::global();
  const WorkCounts counts{
      reg.counter(prefix + ".nodes_split").value(),
      reg.counter(prefix + ".candidates_scored").value(),
      reg.counter(prefix + ".rows_partitioned").value()};
  obs::set_mode(obs::Mode::kOff);
  return counts;
}

TEST(WorkCounters, TreeSegmentAndSortPathsCountTheSameWork) {
  // Bootstrap duplicates and quantized features give many tied values; the
  // segments must hand the scan exactly the per-node sorts' candidates.
  const auto p = make_tied_problem(120, 5, 79);
  Rng rng(81);
  std::vector<std::size_t> rows(p.x_train.rows());
  for (auto& r : rows) r = rng.uniform_index(p.x_train.rows());
  std::sort(rows.begin(), rows.end());
  TreeParams params;
  params.max_depth = 12;
  params.min_samples_leaf = 2;
  const auto base = SortedColumns::build(p.x_train);
  const auto counts = count_work("ml.tree", [&] {
    RegressionTree(params).fit_rows(p.x_train, p.y_train, rows,
                                    ColumnSegments(base, rows));
  });
  EXPECT_EQ(counts.nodes_split, 45U);
  EXPECT_EQ(counts.candidates_scored, 268U);
  EXPECT_EQ(counts.rows_partitioned, 711U);
}

TEST(WorkCounters, GbtSegmentAndSortPathsCountTheSameWork) {
  // The 11-feature problem runs the four-feature segment scans and their
  // scalar tail.
  const WorkCounts expect[2] = {{265, 4194, 17722}, {276, 17974, 17954}};
  const Problem problems[2] = {make_tied_problem(150, 5, 83),
                               make_wide_tied_problem(150, 5, 85)};
  for (int i = 0; i < 2; ++i) {
    const Problem& p = problems[i];
    GbtParams gp;
    gp.n_rounds = 20;
    gp.min_child_weight = 3.0;
    const auto counts = count_work(
        "ml.gbt", [&] { GradientBoosting(gp).fit(p.x_train, p.y_train); });
    EXPECT_EQ(counts.nodes_split, expect[i].nodes_split) << "problem " << i;
    EXPECT_EQ(counts.candidates_scored, expect[i].candidates_scored)
        << "problem " << i;
    EXPECT_EQ(counts.rows_partitioned, expect[i].rows_partitioned)
        << "problem " << i;
  }
}

TEST(WorkCounters, TreeFitSortsOnlyWithoutAnArtifact) {
  // A fit without an artifact builds its own, once; a caller's artifact
  // saves that sort.
  const auto p = make_tied_problem(60, 1, 87);
  const SortedColumns sorted = SortedColumns::build(p.x_train);
  std::uint64_t builds[2] = {0, 0};
  for (int hinted = 0; hinted < 2; ++hinted) {
    obs::set_mode(obs::Mode::kSummary);
    obs::Registry::global().reset_values();
    RegressionTree tree;
    tree.fit(p.x_train, p.y_train, hinted != 0 ? &sorted : nullptr);
    builds[hinted] =
        obs::Registry::global().counter("ml.sorted_columns.builds").value();
    obs::set_mode(obs::Mode::kOff);
  }
  EXPECT_EQ(builds[0], 1U);
  EXPECT_EQ(builds[1], 0U);
}

// RF fits at the output widths 1, 3, 5 and 41, which leave every remainder
// of four outputs (and of four candidates: 203 rows) to the split scan's
// tails. Features are quantized to eight levels and targets to quarters, so
// values and split scores tie often, and bootstrap samples repeat rows. The
// constants were captured from the scalar scan before it was vectorized;
// the .no_avx2 registration asserts them on both dispatch arms.
std::uint64_t output_width_digest(std::size_t n_outputs) {
  constexpr std::size_t kRows = 203;
  constexpr std::size_t kFeatures = 6;
  Rng rng(101 + n_outputs);
  Matrix x(kRows, kFeatures);
  Matrix y(kRows, n_outputs);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < kFeatures; ++c) {
      x(r, c) = std::floor(rng.uniform(0.0, 8.0));
    }
    for (std::size_t c = 0; c < n_outputs; ++c) {
      const double signal = x(r, c % kFeatures) - x(r, (c + 2) % kFeatures);
      y(r, c) = std::floor(4.0 * (signal + rng.uniform(-1.0, 1.0))) / 4.0;
    }
  }
  ForestParams fp;
  fp.n_trees = 12;
  fp.tree.max_depth = 9;
  fp.tree.min_samples_leaf = 2;
  fp.seed = 3;
  RandomForest forest(fp);
  const SortedColumns sorted = SortedColumns::build(x);
  forest.fit(x, y, &sorted);
  return prediction_digest(forest, x);
}

TEST(Tree, OutputWidthDigests) {
  EXPECT_EQ(output_width_digest(1), 0x037ebf11d6509cf8ULL);
  EXPECT_EQ(output_width_digest(3), 0x642ee022f959019bULL);
  EXPECT_EQ(output_width_digest(5), 0x564e469c7b6ace45ULL);
  EXPECT_EQ(output_width_digest(41), 0xb43940e34ab2aeb6ULL);
}

TEST(Tree, RetainedSizeDoesNotGrowWithTrainingRows) {
  // A depth-2 tree on a 4-level step target has the same 7 nodes at any
  // training size; fit-only state (row ranges, column segments, the
  // column-major copy, scan scratch) must not outlive the fit.
  const auto make = [](std::size_t n) {
    Problem p;
    p.x_train = Matrix(n, 3);
    p.y_train = Matrix(n, 2);
    Rng rng(97);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < 3; ++c) p.x_train(r, c) = rng.uniform();
      const double step = std::floor(4.0 * p.x_train(r, 0));
      p.y_train(r, 0) = step;
      p.y_train(r, 1) = -step;
    }
    return p;
  };
  TreeParams params;
  params.max_depth = 2;
  std::size_t bytes[2] = {0, 0};
  std::size_t nodes[2] = {0, 0};
  const std::size_t sizes[2] = {64, 4096};
  for (int i = 0; i < 2; ++i) {
    const auto p = make(sizes[i]);
    RegressionTree tree(params);
    const SortedColumns sorted = SortedColumns::build(p.x_train);
    tree.fit(p.x_train, p.y_train, &sorted);
    bytes[i] = tree.retained_bytes();
    nodes[i] = tree.node_count();
  }
  ASSERT_EQ(nodes[0], 7U);
  ASSERT_EQ(nodes[1], 7U);
  EXPECT_EQ(bytes[1], bytes[0]);
}

TEST(AllModels, CloneIsIndependentAndEquivalent) {
  const auto p = make_problem(100, 20, 31);
  std::vector<std::unique_ptr<Regressor>> models;
  models.push_back(std::make_unique<KnnRegressor>());
  models.push_back(std::make_unique<RandomForest>(
      ForestParams{.n_trees = 10, .tree = {}, .seed = 3}));
  models.push_back(std::make_unique<GradientBoosting>(
      GbtParams{.n_rounds = 10}));
  for (auto& m : models) {
    m->fit(p.x_train, p.y_train);
    auto copy = m->clone();
    EXPECT_TRUE(copy->trained());
    for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
      EXPECT_EQ(m->predict(p.x_test.row(r)), copy->predict(p.x_test.row(r)))
          << m->name();
    }
  }
}

TEST(AllModels, RejectMismatchedFit) {
  const auto x = Matrix::from_rows({{1, 2}, {3, 4}});
  const auto y = Matrix::from_rows({{1}});
  KnnRegressor knn;
  EXPECT_THROW(knn.fit(x, y), std::invalid_argument);
  RandomForest forest;
  EXPECT_THROW(forest.fit(x, y), std::invalid_argument);
  GradientBoosting gbt;
  EXPECT_THROW(gbt.fit(x, y), std::invalid_argument);
}

TEST(AllModels, PredictBeforeFitThrows) {
  KnnRegressor knn;
  EXPECT_THROW(knn.predict(std::vector<double>{1.0}), CheckError);
  RandomForest forest;
  EXPECT_THROW(forest.predict(std::vector<double>{1.0}), CheckError);
  GradientBoosting gbt;
  EXPECT_THROW(gbt.predict(std::vector<double>{1.0}), CheckError);
}

// Parameterized sweep: every model should beat the predict-the-mean baseline
// on the smooth synthetic problem.
class ModelSweep : public ::testing::TestWithParam<int> {};

TEST_P(ModelSweep, BeatsMeanBaseline) {
  const auto p = make_problem(250, 150, 37, /*noise=*/0.2);
  std::unique_ptr<Regressor> model;
  switch (GetParam()) {
    case 0:
      model = std::make_unique<KnnRegressor>(
          KnnParams{.k = 10, .metric = Metric::kEuclidean,
                    .weighting = KnnWeighting::kDistance,
                    .standardize = true});
      break;
    case 1:
      model = std::make_unique<RandomForest>(
          ForestParams{.n_trees = 50, .tree = {}, .seed = 9});
      break;
    default:
      model = std::make_unique<GradientBoosting>();
      break;
  }
  model->fit(p.x_train, p.y_train);
  const auto pred = model->predict_batch(p.x_test);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_GT(r2(p.y_test.col(c), pred.col(c)), 0.35)
        << model->name() << " output " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(KnnRfGbt, ModelSweep, ::testing::Values(0, 1, 2));

// The presorted argument of Regressor::fit, for every learner: the
// two-argument overload forwards nullptr, a matching artifact never changes
// a prediction, and nothing of one fit's artifact survives into the next.
class FitArtifact : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Regressor> make() const {
    const std::string& kind = GetParam();
    if (kind == "Knn") return std::make_unique<KnnRegressor>();
    if (kind == "Ridge") return std::make_unique<RidgeRegressor>();
    if (kind == "Tree") {
      return std::make_unique<RegressionTree>(TreeParams{.max_depth = 6});
    }
    if (kind == "Forest") {
      return std::make_unique<RandomForest>(
          ForestParams{.n_trees = 8, .tree = {}, .seed = 3});
    }
    return std::make_unique<GradientBoosting>(GbtParams{.n_rounds = 15});
  }

  static void expect_same_predictions(const Regressor& a, const Regressor& b,
                                      const Matrix& x) {
    for (std::size_t r = 0; r < x.rows(); ++r) {
      EXPECT_EQ(a.predict(x.row(r)), b.predict(x.row(r)))
          << a.name() << " row " << r;
    }
  }
};

TEST_P(FitArtifact, TwoArgumentFitEqualsNullArtifact) {
  const auto p = make_tied_problem(100, 20, 101);
  auto two = make();
  two->fit(p.x_train, p.y_train);
  auto null = make();
  null->fit(p.x_train, p.y_train, nullptr);
  expect_same_predictions(*two, *null, p.x_test);
}

TEST_P(FitArtifact, MatchingArtifactLeavesPredictionsUnchanged) {
  const auto p = make_tied_problem(100, 20, 103);
  auto plain = make();
  plain->fit(p.x_train, p.y_train);
  auto hinted = make();
  const SortedColumns sorted = SortedColumns::build(p.x_train);
  hinted->fit(p.x_train, p.y_train, &sorted);
  expect_same_predictions(*plain, *hinted, p.x_test);
}

TEST_P(FitArtifact, RefitWithoutArtifactEqualsFreshFit) {
  // The second fit has a different row count, so any artifact of the first
  // fit still in use would be rejected or would build a different model.
  const auto first = make_tied_problem(130, 1, 107);
  const auto second = make_tied_problem(90, 20, 109);
  auto reused = make();
  const SortedColumns sorted = SortedColumns::build(first.x_train);
  reused->fit(first.x_train, first.y_train, &sorted);
  reused->fit(second.x_train, second.y_train);
  auto fresh = make();
  fresh->fit(second.x_train, second.y_train);
  expect_same_predictions(*reused, *fresh, second.x_test);
}

INSTANTIATE_TEST_SUITE_P(AllLearners, FitArtifact,
                         ::testing::Values("Knn", "Ridge", "Tree", "Forest",
                                           "Gbt"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace varpred::ml
