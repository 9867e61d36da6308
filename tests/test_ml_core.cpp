// Tests for the ML substrate plumbing: matrix, scaler, distances, dataset,
// cross-validation splitters, and regression metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "common/rng.hpp"
#include "ml/cv.hpp"
#include "ml/dataset.hpp"
#include "ml/distance.hpp"
#include "ml/matrix.hpp"
#include "ml/metrics.hpp"
#include "ml/scaler.hpp"
#include "ml/sorted_columns.hpp"

namespace varpred::ml {
namespace {

TEST(Matrix, BasicAccessAndRows) {
  Matrix m(2, 3);
  m(0, 0) = 1.0;
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 5.0);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  const auto row = m.row(1);
  EXPECT_DOUBLE_EQ(row[2], 5.0);
  EXPECT_THROW(m.at(2, 0), CheckError);
  EXPECT_THROW(m.at(0, 3), CheckError);
}

TEST(Matrix, PushRowAndFromRows) {
  Matrix m;
  m.push_row(std::vector<double>{1.0, 2.0});
  m.push_row(std::vector<double>{3.0, 4.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_THROW(m.push_row(std::vector<double>{1.0}), std::invalid_argument);

  const auto f = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(f.cols(), 3u);
  EXPECT_DOUBLE_EQ(f(1, 1), 5.0);
}

TEST(Matrix, ColAndGather) {
  const auto m = Matrix::from_rows({{1, 2}, {3, 4}, {5, 6}});
  const auto c = m.col(1);
  EXPECT_EQ(c, (std::vector<double>{2, 4, 6}));
  const std::vector<std::size_t> idx = {2, 0};
  const auto g = m.gather_rows(idx);
  EXPECT_DOUBLE_EQ(g(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(g(1, 0), 1.0);
  const auto t = m.transposed();
  ASSERT_EQ(t.rows(), 2u);
  ASSERT_EQ(t.cols(), 3u);
  EXPECT_EQ(std::vector<double>(t.row(1).begin(), t.row(1).end()), c);
}

TEST(Scaler, StandardizesColumns) {
  const auto m = Matrix::from_rows({{1, 100}, {2, 200}, {3, 300}});
  StandardScaler scaler;
  const auto t = scaler.fit_transform(m);
  // Column means are 2 and 200.
  EXPECT_NEAR(t(0, 0) + t(1, 0) + t(2, 0), 0.0, 1e-12);
  EXPECT_NEAR(t(0, 1) + t(1, 1) + t(2, 1), 0.0, 1e-12);
  // Unit population variance.
  double var = 0.0;
  for (int r = 0; r < 3; ++r) var += t(r, 0) * t(r, 0);
  EXPECT_NEAR(var / 3.0, 1.0, 1e-12);
}

TEST(Scaler, ConstantColumnIsSafe) {
  const auto m = Matrix::from_rows({{5, 1}, {5, 2}, {5, 3}});
  StandardScaler scaler;
  const auto t = scaler.fit_transform(m);
  for (int r = 0; r < 3; ++r) {
    EXPECT_TRUE(std::isfinite(t(r, 0)));
    EXPECT_DOUBLE_EQ(t(r, 0), 0.0);
  }
}

TEST(Scaler, TransformRowMatchesTransform) {
  const auto m = Matrix::from_rows({{1, 10}, {3, 30}});
  StandardScaler scaler;
  scaler.fit(m);
  const auto t = scaler.transform(m);
  const auto row = scaler.transform_row(m.row(1));
  EXPECT_DOUBLE_EQ(row[0], t(1, 0));
  EXPECT_DOUBLE_EQ(row[1], t(1, 1));
  EXPECT_THROW(scaler.transform_row(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Scaler, FromParamsRestoresAFittedScaler) {
  const auto m = Matrix::from_rows({{1, 10, 4}, {3, 30, 4}, {8, 20, 4}});
  StandardScaler fitted;
  fitted.fit(m);
  const auto restored =
      StandardScaler::from_params(fitted.means(), fitted.scales());
  EXPECT_TRUE(restored.fitted());
  EXPECT_EQ(restored.means(), fitted.means());
  EXPECT_EQ(restored.scales(), fitted.scales());
  const auto a = fitted.transform(m);
  const auto b = restored.transform(m);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) EXPECT_EQ(a(r, c), b(r, c));
  }
  EXPECT_THROW(StandardScaler::from_params({0.0, 1.0}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW(StandardScaler::from_params({0.0}, {0.0}),
               std::invalid_argument);
}

TEST(Distance, CosineProperties) {
  const std::vector<double> a = {1, 0};
  const std::vector<double> b = {0, 1};
  const std::vector<double> c = {2, 0};
  EXPECT_NEAR(cosine_distance(a, b), 1.0, 1e-12);   // orthogonal
  EXPECT_NEAR(cosine_distance(a, c), 0.0, 1e-12);   // parallel, scale-free
  const std::vector<double> minus_a = {-1, 0};
  EXPECT_NEAR(cosine_distance(a, minus_a), 2.0, 1e-12);  // opposite
  const std::vector<double> zero = {0, 0};
  EXPECT_DOUBLE_EQ(cosine_distance(a, zero), 1.0);  // degenerate convention
}

TEST(Distance, EuclideanAndManhattan) {
  const std::vector<double> a = {0, 0};
  const std::vector<double> b = {3, 4};
  EXPECT_DOUBLE_EQ(euclidean_distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(manhattan_distance(a, b), 7.0);
  EXPECT_DOUBLE_EQ(distance(Metric::kEuclidean, a, b), 5.0);
  EXPECT_THROW(euclidean_distance(a, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Distance, InvalidMetricFailsHard) {
  // Regression test: an out-of-range metric used to fall through to a
  // silent 0.0 distance (every row a perfect neighbor) and a "?" name.
  // Both must now throw instead.
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {3.0, 4.0};
  const auto bad = static_cast<Metric>(99);
  EXPECT_THROW(distance(bad, a, b), std::invalid_argument);
  EXPECT_THROW(to_string(bad), std::invalid_argument);
  std::vector<double> out(1);
  EXPECT_THROW(distances_to_rows(bad, a, 2, b, out), std::invalid_argument);
}

TEST(Distance, RowBlockKernelMatchesScalarKernels) {
  // distances_to_rows must be bit-identical to calling distance() per row,
  // for every metric, both below and above the parallel dispatch threshold.
  Rng rng(1234);
  for (const std::size_t n : {7u, 3000u}) {  // 3000 * 32 crosses the cutoff
    const std::size_t dim = 32;
    std::vector<double> rows(n * dim);
    std::vector<double> query(dim);
    for (double& v : rows) v = rng.uniform(-2.0, 2.0);
    for (double& v : query) v = rng.uniform(-2.0, 2.0);
    for (const Metric m :
         {Metric::kCosine, Metric::kEuclidean, Metric::kManhattan}) {
      std::vector<double> out(n);
      distances_to_rows(m, rows, dim, query, out);
      for (std::size_t r = 0; r < n; ++r) {
        const std::span<const double> row(rows.data() + r * dim, dim);
        EXPECT_EQ(out[r], distance(m, query, row))
            << to_string(m) << " row " << r;
      }
    }
  }
}

TEST(Distance, RowBlockZeroNormCosineIsOne) {
  // Zero-norm queries and rows keep the documented distance of exactly 1.0
  // in the fused kernel (see S3: this pins the kNN tie-break behaviour).
  const std::vector<double> rows = {0.0, 0.0, 1.0, 2.0};
  const std::vector<double> zero_query = {0.0, 0.0};
  std::vector<double> out(2);
  distances_to_rows(Metric::kCosine, rows, 2, zero_query, out);
  EXPECT_DOUBLE_EQ(out[0], 1.0);  // zero query vs zero row
  EXPECT_DOUBLE_EQ(out[1], 1.0);  // zero query vs nonzero row
  const std::vector<double> query = {3.0, -1.0};
  distances_to_rows(Metric::kCosine, rows, 2, query, out);
  EXPECT_DOUBLE_EQ(out[0], 1.0);  // nonzero query vs zero row
}

TEST(Distance, RowBlockRejectsBadShapes) {
  const std::vector<double> rows = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> out(2);
  EXPECT_THROW(
      distances_to_rows(Metric::kEuclidean, rows, 0, std::vector<double>{},
                        out),
      std::invalid_argument);
  EXPECT_THROW(distances_to_rows(Metric::kEuclidean, rows, 2,
                                 std::vector<double>{1.0}, out),
               std::invalid_argument);
  std::vector<double> short_out(1);
  EXPECT_THROW(distances_to_rows(Metric::kEuclidean, rows, 2,
                                 std::vector<double>{1.0, 2.0}, short_out),
               std::invalid_argument);
}

// Brute-force reference: row indices sorted by (value, index).
std::vector<std::size_t> sorted_column(const Matrix& x, std::size_t c) {
  std::vector<std::size_t> order(x.rows());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) {
              if (x(a, c) != x(b, c)) return x(a, c) < x(b, c);
              return a < b;
            });
  return order;
}

// Brute-force reference for a sample with duplicated rows (ascending, e.g. a
// sorted bootstrap sample): per column, the sample's row ids sorted by
// (value, index), each once per occurrence.
SortedColumns multiset_order(const Matrix& x,
                             const std::vector<std::size_t>& sample) {
  SortedColumns out;
  for (std::size_t c = 0; c < x.cols(); ++c) {
    std::vector<std::size_t> order = sample;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (x(a, c) != x(b, c)) return x(a, c) < x(b, c);
                       return a < b;
                     });
    out.order.push_back(std::move(order));
  }
  return out;
}

// A bootstrap sample of n rows out of n: sorted, with duplicates.
std::vector<std::size_t> bootstrap_sample(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> sample(n);
  for (auto& r : sample) r = rng.uniform_index(n);
  std::sort(sample.begin(), sample.end());
  return sample;
}

Matrix tie_heavy_matrix(std::size_t n, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, cols);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      // Coarse quantization forces plenty of duplicate values so the
      // (value, index) tie-break is actually exercised.
      x(r, c) = std::floor(rng.uniform(-3.0, 3.0));
    }
  }
  return x;
}

TEST(SortedColumns, BuildMatchesFreshSortWithTieBreak) {
  const auto x = tie_heavy_matrix(120, 4, 99);
  const auto cols = SortedColumns::build(x);
  ASSERT_EQ(cols.cols(), 4u);
  ASSERT_EQ(cols.row_count(), 120u);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(cols.order[c], sorted_column(x, c)) << "column " << c;
  }
}

TEST(SortedColumns, FilteredEqualsBuildOfSubmatrix) {
  // The fold-cache invariant: filtering the dataset artifact down to a
  // strictly ascending row subset must be bit-for-bit what a fresh build
  // over the gathered submatrix produces.
  const auto x = tie_heavy_matrix(90, 3, 7);
  const auto base = SortedColumns::build(x);
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < 90; r += 1 + r % 3) rows.push_back(r);
  const auto filtered = base.filtered(rows);
  const auto fresh = SortedColumns::build(x.gather_rows(rows));
  ASSERT_EQ(filtered.cols(), fresh.cols());
  for (std::size_t c = 0; c < fresh.cols(); ++c) {
    EXPECT_EQ(filtered.order[c], fresh.order[c]) << "column " << c;
  }
}

TEST(ColumnSegments, SplitIsAStablePartitionOfEveryColumn) {
  // The partition kernel both tree learners share: after a split, every
  // column's left range is the column's previous order filtered to the
  // rows going left, and the right range the rest — on a bootstrap sample
  // whose duplicated rows and tied values stress the stability.
  const auto x = tie_heavy_matrix(60, 3, 17);
  const ColumnSegments root(multiset_order(x, bootstrap_sample(60, 37)));
  ColumnSegments segments = root;
  const auto xt = x.transposed();
  const auto expect_split = [&](const ColumnSegments& before,
                                std::size_t f, double threshold,
                                std::size_t begin, std::size_t end) {
    ColumnSegments after = before;
    after.split(f, xt.row(f), threshold, begin, end);
    for (std::size_t c = 0; c < x.cols(); ++c) {
      std::vector<std::uint32_t> left;
      std::vector<std::uint32_t> right;
      for (const std::uint32_t r : before.segment(c, begin, end)) {
        (x(r, f) <= threshold ? left : right).push_back(r);
      }
      const std::size_t mid = begin + left.size();
      const auto l = after.segment(c, begin, mid);
      const auto rr = after.segment(c, mid, end);
      EXPECT_EQ(std::vector<std::uint32_t>(l.begin(), l.end()), left)
          << "column " << c;
      EXPECT_EQ(std::vector<std::uint32_t>(rr.begin(), rr.end()), right)
          << "column " << c;
    }
    return after;
  };
  segments = expect_split(segments, 0, 0.0, 0, 60);
  std::size_t mid = 0;
  for (const std::uint32_t r : segments.segment(0, 0, 60)) {
    mid += x(r, 0) <= 0.0;
  }
  segments = expect_split(segments, 1, -1.0, 0, mid);
  segments = expect_split(segments, 2, 1.0, mid, 60);
  segments.reset_to(root);
  for (std::size_t c = 0; c < x.cols(); ++c) {
    const auto a = segments.segment(c, 0, 60);
    const auto b = root.segment(c, 0, 60);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(ColumnSegments, SplitMatchesStablePartitionAtBlockEdges) {
  // split() moves eight row ids per step on AVX2 hosts and one at a time in
  // the tail (and in the scalar arm, see the .no_avx2 registration). Nodes
  // of 0-33 rows starting at offsets 0-9 put block and tail boundaries at
  // every alignment. Each column holds its own order of one bootstrap
  // sample (duplicate ids) in three parts: the node's rows [begin, end) and
  // the rows outside it, which split() must leave untouched.
  constexpr std::size_t kRows = 45;
  constexpr std::size_t kCols = 3;
  constexpr std::size_t kIds = 30;
  Rng rng(43);
  std::vector<std::size_t> sample(kRows);
  for (auto& r : sample) r = rng.uniform_index(kIds);
  std::sort(sample.begin(), sample.end());
  enum class Pattern { kAllLeft, kAllRight, kAlternating, kRandom };
  for (std::size_t begin = 0; begin <= 9; ++begin) {
    for (std::size_t len = 0; len <= 33; ++len) {
      const std::size_t end = begin + len;
      SortedColumns sorted;
      for (std::size_t c = 0; c < kCols; ++c) {
        std::vector<std::size_t> order = sample;
        for (const auto& [lo, hi] :
             {std::pair{std::size_t{0}, begin}, std::pair{begin, end},
              std::pair{end, kRows}}) {
          for (std::size_t i = hi; i > lo + 1; --i) {
            std::swap(order[i - 1], order[lo + rng.uniform_index(i - lo)]);
          }
        }
        sorted.order.push_back(std::move(order));
      }
      const ColumnSegments root(sorted);
      const std::size_t f = (begin + len) % kCols;
      for (const Pattern pattern :
           {Pattern::kAllLeft, Pattern::kAllRight, Pattern::kAlternating,
            Pattern::kRandom}) {
        // values[id] <= 0.5 sends id left; alternating goes by first
        // occurrence in the split feature's node order.
        std::vector<double> values(kIds, 0.0);
        std::vector<bool> seen(kIds, false);
        std::size_t distinct = 0;
        for (const std::uint32_t id : root.segment(f, begin, end)) {
          if (seen[id]) continue;
          seen[id] = true;
          if (pattern == Pattern::kAllRight) values[id] = 1.0;
          if (pattern == Pattern::kAlternating) values[id] = double(distinct);
          if (pattern == Pattern::kRandom) values[id] = rng.uniform();
          distinct ^= 1;
        }
        ColumnSegments after = root;
        after.split(f, values, 0.5, begin, end);
        for (std::size_t c = 0; c < kCols; ++c) {
          std::vector<std::uint32_t> expect(sorted.order[c].begin(),
                                            sorted.order[c].end());
          std::stable_partition(
              expect.begin() + static_cast<std::ptrdiff_t>(begin),
              expect.begin() + static_cast<std::ptrdiff_t>(end),
              [&](std::uint32_t id) { return values[id] <= 0.5; });
          const auto got = after.segment(c, 0, kRows);
          EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), expect)
              << "column " << c << ", begin " << begin << ", length " << len
              << ", pattern " << static_cast<int>(pattern);
        }
      }
    }
  }
}

TEST(ColumnSegments, SampleConstructorEqualsSortOfTheMultiset) {
  // A forest loads each bootstrap sample's segments straight from the
  // dataset artifact: duplicated sample rows appear once per occurrence, in
  // the order a (value, index) sort of the sample multiset gives.
  const auto x = tie_heavy_matrix(50, 3, 19);
  const auto base = SortedColumns::build(x);
  const auto sample = bootstrap_sample(50, 41);
  const ColumnSegments direct(base, sample);
  const SortedColumns expect = multiset_order(x, sample);
  ASSERT_EQ(direct.rows(), sample.size());
  ASSERT_EQ(direct.cols(), x.cols());
  for (std::size_t c = 0; c < x.cols(); ++c) {
    const auto got = direct.segment(c, 0, sample.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.order[c].begin(),
                           expect.order[c].end()))
        << "column " << c;
  }
  const std::vector<std::size_t> descending = {3, 1};
  EXPECT_THROW(ColumnSegments(base, descending), std::invalid_argument);
  const std::vector<std::size_t> oob = {5, 50};
  EXPECT_THROW(ColumnSegments(base, oob), std::invalid_argument);
}

TEST(SortedColumns, FilteredValidatesRowOrder) {
  const auto x = tie_heavy_matrix(10, 2, 13);
  const auto base = SortedColumns::build(x);
  const std::vector<std::size_t> descending = {3, 1};
  EXPECT_THROW(base.filtered(descending), std::invalid_argument);
  // Rows must be *strictly* ascending; duplicates must be rejected.
  const std::vector<std::size_t> dup = {1, 1, 2};
  EXPECT_THROW(base.filtered(dup), std::invalid_argument);
  const std::vector<std::size_t> oob = {5, 25};
  EXPECT_THROW(base.filtered(oob), std::invalid_argument);
  EXPECT_THROW(base.filtered({}), std::invalid_argument);
}

TEST(Dataset, ValidateAndSubset) {
  Dataset d;
  d.x = Matrix::from_rows({{1, 2}, {3, 4}, {5, 6}});
  d.y = Matrix::from_rows({{1}, {2}, {3}});
  d.groups = {0, 0, 1};
  d.row_ids = {"a", "b", "c"};
  d.validate();

  const std::vector<std::size_t> rows = {0, 2};
  const auto s = d.subset(rows);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.row_ids[1], "c");
  EXPECT_EQ(s.groups[1], 1);
  EXPECT_DOUBLE_EQ(s.y(1, 0), 3.0);

  d.groups = {0};
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(Cv, LeaveOneGroupOutCoversEachGroupOnce) {
  const std::vector<int> groups = {0, 0, 1, 2, 2, 2};
  const auto folds = leave_one_group_out(groups);
  ASSERT_EQ(folds.size(), 3u);
  std::set<int> held;
  for (const auto& f : folds) {
    held.insert(f.held_out_group);
    EXPECT_EQ(f.train.size() + f.test.size(), groups.size());
    for (const std::size_t t : f.test) {
      EXPECT_EQ(groups[t], f.held_out_group);
    }
    for (const std::size_t t : f.train) {
      EXPECT_NE(groups[t], f.held_out_group);
    }
  }
  EXPECT_EQ(held.size(), 3u);
  EXPECT_THROW(leave_one_group_out(std::vector<int>{1, 1}),
               std::invalid_argument);
}

TEST(Cv, KFoldPartitionsRows) {
  const auto folds = k_fold(10, 3, 7);
  ASSERT_EQ(folds.size(), 3u);
  std::set<std::size_t> seen;
  for (const auto& f : folds) {
    for (const std::size_t t : f.test) {
      EXPECT_TRUE(seen.insert(t).second) << "row tested twice";
    }
    EXPECT_EQ(f.train.size() + f.test.size(), 10u);
  }
  EXPECT_EQ(seen.size(), 10u);
  // Deterministic for the same seed.
  const auto again = k_fold(10, 3, 7);
  EXPECT_EQ(again[0].test, folds[0].test);
}

TEST(Metrics, KnownValues) {
  const std::vector<double> t = {1, 2, 3};
  const std::vector<double> p = {1, 2, 3};
  EXPECT_DOUBLE_EQ(mse(t, p), 0.0);
  EXPECT_DOUBLE_EQ(mae(t, p), 0.0);
  EXPECT_DOUBLE_EQ(r2(t, p), 1.0);

  const std::vector<double> q = {2, 2, 2};  // predicts the mean
  EXPECT_DOUBLE_EQ(r2(t, q), 0.0);
  EXPECT_NEAR(mse(t, q), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(mae(t, q), 2.0 / 3.0, 1e-12);
}

TEST(Metrics, R2DegenerateTruth) {
  const std::vector<double> t = {2, 2};
  EXPECT_DOUBLE_EQ(r2(t, std::vector<double>{2, 2}), 1.0);
  EXPECT_DOUBLE_EQ(r2(t, std::vector<double>{1, 3}), 0.0);
}

TEST(EnumNames, OutOfRangeDistanceMetricThrows) {
  EXPECT_EQ(to_string(Metric::kManhattan), "manhattan");
  EXPECT_THROW(to_string(static_cast<Metric>(99)), std::invalid_argument);
}

}  // namespace
}  // namespace varpred::ml
