#include "ml/gbt.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"

#ifdef VARPRED_SIMD_AVX2
#include <immintrin.h>
#endif

namespace varpred::ml {
namespace {

// The per-node inputs of the split gain, and the best split found so far.
struct NodeScan {
  double g_total = 0.0;
  double h_total = 0.0;
  double parent_score = 0.0;
  double lambda = 0.0;
  double min_child_weight = 0.0;
  double best_gain = 0.0;
  std::int32_t best_feature = -1;
  double best_threshold = 0.0;
};

#ifdef VARPRED_SIMD_AVX2

// Lane j holds base[j][seg[j][i]].
__attribute__((target("avx2"))) inline __m256d gather4(
    const double* const* base, const std::uint32_t* const* seg,
    std::size_t i) {
  return _mm256_set_pd(base[3][seg[3][i]], base[2][seg[2][i]],
                       base[1][seg[1][i]], base[0][seg[0][i]]);
}

// The column-segment scan of build_node for the four features first ..
// first + 3 side by side, one AVX2 lane each. Every segment holds the
// node's n rows, so step i has the same h_left = i, denominators and
// min_child_weight test in every lane; per lane the kernel does exactly
// the scalar scan's operations (no FMA: the library builds with
// -ffp-contract=off):
//   - a candidate is a step whose value differs (`!=`, NaN included) from
//     the previous one;
//   - its gain is 0.5 * (gl*gl/(h_left+lambda) + gr*gr/(h_right+lambda)
//     - parent_score), evaluated mul, div, add, sub, mul;
//   - a lane keeps its first strict maximum above the incoming best gain.
// The lanes then fold into `scan` in feature order with a strict `>`, which
// is where the sequential scan of the four features would end. Returns the
// candidates scored.
__attribute__((target("avx2"))) std::size_t scan_four(
    std::size_t first, const ColumnSegments& segments, const Matrix& columns,
    const double* grad, std::size_t begin, std::size_t end, NodeScan& scan) {
  const std::size_t n = end - begin;
  const std::uint32_t* seg[4];
  const double* values[4];
  for (std::size_t j = 0; j < 4; ++j) {
    seg[j] = segments.segment(first + j, begin, end).data();
    values[j] = columns.row(first + j).data();
  }
  // Every lane gathers its gradients from the one row-indexed array.
  const double* grads[4] = {grad, grad, grad, grad};
  const __m256d g_total = _mm256_set1_pd(scan.g_total);
  const __m256d parent_score = _mm256_set1_pd(scan.parent_score);
  const __m256d half = _mm256_set1_pd(0.5);
  __m256d best = _mm256_set1_pd(scan.best_gain);
  __m256d best_step = _mm256_setzero_pd();
  __m256d prev = gather4(values, seg, 0);
  __m256d g_left = _mm256_add_pd(_mm256_setzero_pd(), gather4(grads, seg, 0));
  std::size_t scored = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const __m256d v = gather4(values, seg, i);
    const auto h_left = static_cast<double>(i);
    const double h_right = scan.h_total - h_left;
    if (h_left >= scan.min_child_weight && h_right >= scan.min_child_weight) {
      const __m256d valid = _mm256_cmp_pd(v, prev, _CMP_NEQ_UQ);
      const int mask = _mm256_movemask_pd(valid);
      if (mask != 0) {
        const __m256d g_right = _mm256_sub_pd(g_total, g_left);
        const __m256d gain = _mm256_mul_pd(
            half,
            _mm256_sub_pd(
                _mm256_add_pd(
                    _mm256_div_pd(_mm256_mul_pd(g_left, g_left),
                                  _mm256_set1_pd(h_left + scan.lambda)),
                    _mm256_div_pd(_mm256_mul_pd(g_right, g_right),
                                  _mm256_set1_pd(h_right + scan.lambda))),
                parent_score));
        const __m256d better =
            _mm256_and_pd(valid, _mm256_cmp_pd(gain, best, _CMP_GT_OQ));
        best = _mm256_blendv_pd(best, gain, better);
        best_step =
            _mm256_blendv_pd(best_step, _mm256_set1_pd(h_left), better);
        scored += static_cast<std::size_t>(
            std::popcount(static_cast<unsigned>(mask)));
      }
    }
    g_left = _mm256_add_pd(g_left, gather4(grads, seg, i));
    prev = v;
  }

  alignas(32) double lane_best[4];
  alignas(32) double lane_step[4];
  _mm256_store_pd(lane_best, best);
  _mm256_store_pd(lane_step, best_step);
  for (std::size_t j = 0; j < 4; ++j) {
    if (lane_best[j] > scan.best_gain) {
      const auto i = static_cast<std::size_t>(lane_step[j]);
      scan.best_gain = lane_best[j];
      scan.best_feature = static_cast<std::int32_t>(first + j);
      scan.best_threshold =
          0.5 * (values[j][seg[j][i - 1]] + values[j][seg[j][i]]);
    }
  }
  return scored;
}

// Whether build_node scans column segments four features at a time.
bool lockstep_scan() {
  static const bool enabled = avx2_enabled();
  return enabled;
}

#endif  // VARPRED_SIMD_AVX2

}  // namespace

GradientBoosting::GradientBoosting(GbtParams params) : params_(params) {
  VARPRED_CHECK_ARG(params_.n_rounds >= 1, "need at least one round");
  VARPRED_CHECK_ARG(params_.learning_rate > 0.0, "learning rate must be > 0");
  VARPRED_CHECK_ARG(params_.lambda >= 0.0, "lambda must be >= 0");
}

double GradientBoosting::BoostTree::predict_one(
    std::span<const double> row) const {
  std::int32_t idx = 0;
  for (;;) {
    const Node& node = nodes[static_cast<std::size_t>(idx)];
    if (node.feature < 0) return node.weight;
    VARPRED_CHECK(static_cast<std::size_t>(node.feature) < row.size(),
                  "feature index out of range in predict");
    idx = row[static_cast<std::size_t>(node.feature)] <= node.threshold
              ? node.left
              : node.right;
  }
}

std::int32_t GradientBoosting::build_node(
    BoostTree& tree, const Matrix& x, std::span<const double> grad,
    std::span<const double> hess, std::vector<std::size_t>& work,
    std::size_t begin, std::size_t end, std::size_t depth,
    const Matrix& columns, ColumnSegments& segments) const {
  const std::size_t n = end - begin;
  double g_total = 0.0;
  double h_total = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    g_total += grad[work[i]];
    h_total += hess[work[i]];
  }

  auto leaf = [&]() {
    Node node;
    node.feature = -1;
    node.weight = -g_total / (h_total + params_.lambda);
    tree.nodes.push_back(node);
    return static_cast<std::int32_t>(tree.nodes.size() - 1);
  };

  if (depth >= params_.max_depth || n < 2) return leaf();

  NodeScan scan{.g_total = g_total,
                .h_total = h_total,
                .parent_score = g_total * g_total / (h_total + params_.lambda),
                .lambda = params_.lambda,
                .min_child_weight = params_.min_child_weight,
                .best_gain = params_.gamma};
  std::size_t scored = 0;

  // Evaluates split candidates along feature f's column segment: this
  // node's rows in (feature value, row index) order. Values come from the
  // column-major copy of x. The squared loss's Hessian is the constant 1,
  // so the left Hessian sum is exactly the number of rows seen (a sum of
  // ones) and needs no per-row gather. This is the oracle scan_four
  // reproduces lane by lane.
  auto scan_segment = [&](std::size_t f) {
    const std::span<const double> values = columns.row(f);
    double g_left = 0.0;
    std::size_t seen = 0;
    double prev_value = 0.0;
    for (const std::uint32_t row : segments.segment(f, begin, end)) {
      const double v = values[row];
      if (seen > 0 && v != prev_value) {
        // Candidate split between prev_value and v.
        const auto h_left = static_cast<double>(seen);
        const double h_right = h_total - h_left;
        if (h_left >= params_.min_child_weight &&
            h_right >= params_.min_child_weight) {
          const double g_right = g_total - g_left;
          const double gain =
              0.5 * (g_left * g_left / (h_left + params_.lambda) +
                     g_right * g_right / (h_right + params_.lambda) -
                     scan.parent_score);
          ++scored;
          if (gain > scan.best_gain) {
            scan.best_gain = gain;
            scan.best_feature = static_cast<std::int32_t>(f);
            scan.best_threshold = 0.5 * (prev_value + v);
          }
        }
      }
      g_left += grad[row];
      prev_value = v;
      ++seen;
    }
  };

  // Four features per step while four remain, when dispatch allows.
  const std::size_t n_features = x.cols();
  std::size_t next = 0;
#ifdef VARPRED_SIMD_AVX2
  if (lockstep_scan()) {
    for (; next + 4 <= n_features; next += 4) {
      scored += scan_four(next, segments, columns, grad.data(), begin, end,
                          scan);
    }
  }
#endif
  for (; next < n_features; ++next) scan_segment(next);

  VARPRED_OBS_COUNT("ml.gbt.candidates_scored", scored);
  if (scan.best_feature < 0) return leaf();

  const auto f = static_cast<std::size_t>(scan.best_feature);
  const double threshold = scan.best_threshold;
  const auto mid_it =
      std::partition(work.begin() + static_cast<std::ptrdiff_t>(begin),
                     work.begin() + static_cast<std::ptrdiff_t>(end),
                     [&](std::size_t idx) { return x(idx, f) <= threshold; });
  const auto mid = static_cast<std::size_t>(mid_it - work.begin());
  if (mid == begin || mid == end) return leaf();
  VARPRED_OBS_COUNT("ml.gbt.nodes_split", 1);
  VARPRED_OBS_COUNT("ml.gbt.rows_partitioned", n);

  // Keep every column's range partitioned in lockstep with `work`, unless
  // depth or size already makes both children leaves: then no scan reads
  // the segments again.
  const bool children_scanned =
      depth + 1 < params_.max_depth && (mid - begin >= 2 || end - mid >= 2);
  if (children_scanned) {
    segments.split(f, columns.row(f), threshold, begin, end);
  }

  tree.nodes.emplace_back();
  const auto self = static_cast<std::int32_t>(tree.nodes.size() - 1);
  tree.nodes[self].feature = scan.best_feature;
  tree.nodes[self].threshold = threshold;
  const std::int32_t left = build_node(tree, x, grad, hess, work, begin, mid,
                                       depth + 1, columns, segments);
  const std::int32_t right = build_node(tree, x, grad, hess, work, mid, end,
                                        depth + 1, columns, segments);
  tree.nodes[self].left = left;
  tree.nodes[self].right = right;
  return self;
}

GradientBoosting::BoostTree GradientBoosting::fit_tree(
    const Matrix& x, std::span<const double> grad,
    std::span<const double> hess, const Matrix& columns,
    ColumnSegments& segments) const {
  BoostTree tree;
  std::vector<std::size_t> work(x.rows());
  std::iota(work.begin(), work.end(), std::size_t{0});
  build_node(tree, x, grad, hess, work, 0, work.size(), 0, columns, segments);
  return tree;
}

void GradientBoosting::fit(const Matrix& x, const Matrix& y,
                           const SortedColumns* presorted) {
  VARPRED_CHECK_ARG(x.rows() == y.rows(), "X/Y row count mismatch");
  VARPRED_CHECK_ARG(x.rows() >= 1, "need at least one training row");
  VARPRED_CHECK_ARG(presorted == nullptr ||
                        (presorted->cols() == x.cols() &&
                         presorted->row_count() == x.rows()),
                    "presorted artifact does not match training matrix");
  obs::Span span("ml.gbt.fit");
  VARPRED_OBS_COUNT("ml.gbt.fits", 1);
  VARPRED_OBS_COUNT("ml.gbt.rounds_trained", params_.n_rounds * y.cols());
  const std::size_t n = x.rows();
  const std::size_t n_outputs = y.cols();
  ensembles_.assign(n_outputs, Ensemble{});

  // Every tree trains on every row, so the per-column sorted orders are
  // shared by every node of every tree of every output ensemble. A
  // caller-provided artifact skips even that one dataset-level sort — the
  // evaluator builds it once per corpus and shares it across all folds.
  SortedColumns own;
  if (presorted != nullptr) {
    VARPRED_OBS_COUNT("ml.gbt.presort_reused", 1);
  } else {
    own = SortedColumns::build(x);
    presorted = &own;
  }

  // The scans read values from one column-major copy of x, shared
  // read-only by every output ensemble. The per-feature orders are kept as
  // node-partitioned segments: each ensemble restores its copy from the
  // shared root orders every round.
  const Matrix columns = x.transposed();
  const ColumnSegments root(*presorted);

  parallel_for(n_outputs, [&](std::size_t out) {
    Ensemble& ens = ensembles_[out];

    // Base score: mean of this output.
    double base = 0.0;
    for (std::size_t r = 0; r < n; ++r) base += y(r, out);
    base /= static_cast<double>(n);
    ens.base_score = base;

    std::vector<double> pred(n, base);
    std::vector<double> grad(n, 0.0);
    const std::vector<double> hess(n, 1.0);  // squared loss
    ens.trees.reserve(params_.n_rounds);

    ColumnSegments segments = root;
    for (std::size_t round = 0; round < params_.n_rounds; ++round) {
      for (std::size_t r = 0; r < n; ++r) grad[r] = pred[r] - y(r, out);
      if (round > 0) segments.reset_to(root);
      BoostTree tree = fit_tree(x, grad, hess, columns, segments);
      for (std::size_t r = 0; r < n; ++r) {
        pred[r] += params_.learning_rate * tree.predict_one(x.row(r));
      }
      ens.trees.push_back(std::move(tree));
    }
  });
}

std::vector<double> GradientBoosting::predict(
    std::span<const double> row) const {
  VARPRED_CHECK(trained(), "predict before fit");
  std::vector<double> out(ensembles_.size(), 0.0);
  for (std::size_t c = 0; c < ensembles_.size(); ++c) {
    double acc = ensembles_[c].base_score;
    for (const auto& tree : ensembles_[c].trees) {
      acc += params_.learning_rate * tree.predict_one(row);
    }
    out[c] = acc;
  }
  return out;
}

std::unique_ptr<Regressor> GradientBoosting::clone() const {
  return std::make_unique<GradientBoosting>(*this);
}

}  // namespace varpred::ml
