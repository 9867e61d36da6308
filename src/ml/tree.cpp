#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/simd.hpp"
#include "obs/obs.hpp"

#ifdef VARPRED_SIMD_AVX2
#include <immintrin.h>
#endif

namespace varpred::ml {
namespace {

// The best split found so far at one node.
struct BestSplit {
  double sse = 0.0;
  std::int32_t feature = -1;
  double threshold = 0.0;
};

// Frees a buffer's storage (clear() keeps the capacity).
template <typename T>
void release(T& buffer) {
  buffer = T();
}

// Scratch of scan_feature for a fit over n sampled rows and o outputs.
struct ScanBuffers {
  std::vector<double> running;  // o: per-output left sums so far
  // (n + 3) * o: per-candidate left sums, with room for the idle lanes of
  // the last group of four
  std::vector<double> left;
  // n + 3: candidates' split positions, with room for the idle lanes of
  // the last group of four
  std::vector<std::uint32_t> candidates;

  ScanBuffers() = default;
  ScanBuffers(std::size_t n, std::size_t o)
      : running(o), left((n + 3) * o, 0.0), candidates(n + 3, 0) {}
};

// Exact split search over one feature: `rows` holds the node's rows sorted
// by (value of feature f, row id), `values` is feature f's column. Performs
// the floating-point operations of a sequential scan that keeps one running
// sum per output and scores each candidate as it passes, in the same order,
// without a data-dependent branch per row:
//
//   1. One pass over the sorted rows keeps the running per-output left sums
//      (from 0.0, one add per row and output). After each row it stores
//      them, and the split position, as the next candidate; the candidate
//      count advances only when the position leaves min_leaf rows on each
//      side and falls between distinct values.
//   2. Candidates are scored four at a time: four independent penalty
//      chains, each summed in output order.
//   3. Scores are compared with the best in candidate order, so ties
//      resolve as in the sequential scan; only an improvement branches.
//
// Returns the candidates scored.
std::size_t scan_feature(std::size_t f, std::span<const std::uint32_t> rows,
                         std::span<const double> values, const double* y,
                         const double* total_sum, double total_sq,
                         std::size_t min_leaf, ScanBuffers& buf,
                         BestSplit& best) {
  const std::size_t n = rows.size();
  const std::size_t n_outputs = buf.running.size();
  double* running = buf.running.data();
  double* left = buf.left.data();
  std::uint32_t* candidates = buf.candidates.data();

  std::fill(running, running + n_outputs, 0.0);
  std::size_t k = 0;
  for (std::size_t i = 0; i + min_leaf < n; ++i) {
    const double* row = y + rows[i] * n_outputs;
    double* sums = left + k * n_outputs;
    for (std::size_t c = 0; c < n_outputs; ++c) {
      running[c] += row[c];
      sums[c] = running[c];
    }
    candidates[k] = static_cast<std::uint32_t>(i);
    k += (i + 1 >= min_leaf) & !(values[rows[i]] == values[rows[i + 1]]);
  }

  for (std::size_t g = 0; g < k; g += 4) {
    // Lanes past k hold stale sums; their scores are never read.
    double left_penalty[4] = {0.0, 0.0, 0.0, 0.0};
    double right_penalty[4] = {0.0, 0.0, 0.0, 0.0};
    const double* lane = left + g * n_outputs;
    for (std::size_t c = 0; c < n_outputs; ++c) {
      for (std::size_t j = 0; j < 4; ++j) {
        const double ls = lane[j * n_outputs + c];
        left_penalty[j] += ls * ls;
        const double rs = total_sum[c] - ls;
        right_penalty[j] += rs * rs;
      }
    }
    const std::size_t lanes = std::min<std::size_t>(4, k - g);
    for (std::size_t j = 0; j < lanes; ++j) {
      const std::size_t i = candidates[g + j];
      const std::size_t n_left = i + 1;
      const std::size_t n_right = n - n_left;
      double sse = total_sq;
      sse -= left_penalty[j] / static_cast<double>(n_left) +
             right_penalty[j] / static_cast<double>(n_right);
      if (sse < best.sse) {
        best.sse = sse;
        best.feature = static_cast<std::int32_t>(f);
        best.threshold = 0.5 * (values[rows[i]] + values[rows[i + 1]]);
      }
    }
  }
  return k;
}

#ifdef VARPRED_SIMD_AVX2

// One output's step of four candidates' penalty chains: lp += ls * ls and
// rp += (total - ls)^2, lane by lane.
__attribute__((target("avx2"))) inline void add_penalties(
    __m256d ls, double total, __m256d& left_penalty, __m256d& right_penalty) {
  left_penalty = _mm256_add_pd(left_penalty, _mm256_mul_pd(ls, ls));
  const __m256d rs = _mm256_sub_pd(_mm256_set1_pd(total), ls);
  right_penalty = _mm256_add_pd(right_penalty, _mm256_mul_pd(rs, rs));
}

// scan_feature with four outputs per AVX2 add in the running pass and four
// candidates per vector in the scoring, one lane each. Per output and per
// candidate it does exactly scan_feature's floating-point operations in
// the same order (no FMA: the library builds with -ffp-contract=off):
//   - each running sum is the previous candidate slot's sum plus the row's
//     value, one add per row in sorted order, stored as the next
//     candidate's sum; outputs past the last multiple of four add scalar;
//   - a group's 4x4 blocks of left sums (candidates x outputs) are
//     transposed in registers, so each lane's penalty chains add ls*ls and
//     (T_c - ls)^2 in output order; tail outputs load their four lanes
//     one by one;
//   - sse = total_sq - (lp / n_left + rp / n_right), with n_left the
//     exact double of candidate + 1;
//   - a group none of whose live lanes beats the incoming best is skipped;
//     otherwise its lanes are compared with the running best in candidate
//     order with a strict `<`, as in scan_feature.
__attribute__((target("avx2"))) std::size_t scan_feature_avx2(
    std::size_t f, std::span<const std::uint32_t> rows,
    std::span<const double> values, const double* y, const double* total_sum,
    double total_sq, std::size_t min_leaf, ScanBuffers& buf,
    BestSplit& best) {
  const std::size_t n = rows.size();
  const std::size_t n_outputs = buf.running.size();
  const std::size_t vector_outputs = n_outputs - n_outputs % 4;
  double* left = buf.left.data();
  std::uint32_t* candidates = buf.candidates.data();

  std::fill(buf.running.begin(), buf.running.end(), 0.0);
  const double* previous = buf.running.data();  // zeros before the first row
  std::size_t k = 0;
  for (std::size_t i = 0; i + min_leaf < n; ++i) {
    const double* row = y + rows[i] * n_outputs;
    double* sums = left + k * n_outputs;
    std::size_t c = 0;
    for (; c < vector_outputs; c += 4) {
      _mm256_storeu_pd(sums + c, _mm256_add_pd(_mm256_loadu_pd(previous + c),
                                               _mm256_loadu_pd(row + c)));
    }
    for (; c < n_outputs; ++c) sums[c] = previous[c] + row[c];
    previous = sums;
    candidates[k] = static_cast<std::uint32_t>(i);
    k += (i + 1 >= min_leaf) & !(values[rows[i]] == values[rows[i + 1]]);
  }

  const __m256d total_squares = _mm256_set1_pd(total_sq);
  const __m256d n_rows = _mm256_set1_pd(static_cast<double>(n));
  const __m256d one = _mm256_set1_pd(1.0);
  for (std::size_t g = 0; g < k; g += 4) {
    // Lanes past k hold stale sums and positions; they are masked below.
    const double* lane = left + g * n_outputs;
    __m256d left_penalty = _mm256_setzero_pd();
    __m256d right_penalty = _mm256_setzero_pd();
    std::size_t c = 0;
    for (; c < vector_outputs; c += 4) {
      const __m256d r0 = _mm256_loadu_pd(lane + c);
      const __m256d r1 = _mm256_loadu_pd(lane + n_outputs + c);
      const __m256d r2 = _mm256_loadu_pd(lane + 2 * n_outputs + c);
      const __m256d r3 = _mm256_loadu_pd(lane + 3 * n_outputs + c);
      const __m256d lo01 = _mm256_unpacklo_pd(r0, r1);
      const __m256d hi01 = _mm256_unpackhi_pd(r0, r1);
      const __m256d lo23 = _mm256_unpacklo_pd(r2, r3);
      const __m256d hi23 = _mm256_unpackhi_pd(r2, r3);
      // Columns of the 4x4 block: output c + m of candidates g .. g + 3.
      const __m256d ls[4] = {_mm256_permute2f128_pd(lo01, lo23, 0x20),
                             _mm256_permute2f128_pd(hi01, hi23, 0x20),
                             _mm256_permute2f128_pd(lo01, lo23, 0x31),
                             _mm256_permute2f128_pd(hi01, hi23, 0x31)};
      for (std::size_t m = 0; m < 4; ++m) {
        add_penalties(ls[m], total_sum[c + m], left_penalty, right_penalty);
      }
    }
    for (; c < n_outputs; ++c) {
      add_penalties(_mm256_set_pd(lane[3 * n_outputs + c],
                                  lane[2 * n_outputs + c],
                                  lane[n_outputs + c], lane[c]),
                    total_sum[c], left_penalty, right_penalty);
    }
    const __m256d n_left = _mm256_add_pd(
        _mm256_cvtepi32_pd(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(candidates + g))),
        one);
    const __m256d n_right = _mm256_sub_pd(n_rows, n_left);
    const __m256d sse = _mm256_sub_pd(
        total_squares, _mm256_add_pd(_mm256_div_pd(left_penalty, n_left),
                                     _mm256_div_pd(right_penalty, n_right)));
    const std::size_t lanes = std::min<std::size_t>(4, k - g);
    const int live = (1 << lanes) - 1;
    const int better = _mm256_movemask_pd(_mm256_cmp_pd(
                           sse, _mm256_set1_pd(best.sse), _CMP_LT_OQ)) &
                       live;
    if (better == 0) continue;
    alignas(32) double lane_sse[4];
    _mm256_store_pd(lane_sse, sse);
    for (std::size_t j = 0; j < lanes; ++j) {
      if (lane_sse[j] < best.sse) {
        const std::size_t i = candidates[g + j];
        best.sse = lane_sse[j];
        best.feature = static_cast<std::int32_t>(f);
        best.threshold = 0.5 * (values[rows[i]] + values[rows[i + 1]]);
      }
    }
  }
  return k;
}

#endif  // VARPRED_SIMD_AVX2

using ScanFn = decltype(&scan_feature);

// The scan build runs over samples of n rows: scan_feature_avx2 when
// dispatch allows and split positions fit the int32 lanes it converts to
// double, else the scalar scan_feature, which stays the oracle.
ScanFn feature_scan([[maybe_unused]] std::size_t n) {
#ifdef VARPRED_SIMD_AVX2
  static const bool avx2 = avx2_enabled();
  if (avx2 && n <= INT32_MAX) return scan_feature_avx2;
#endif
  return scan_feature;
}

}  // namespace

// Exact split search state for one fit: the column-major copy of x the
// scans read values from, the scan and its scratch, the per-node output
// sums (refilled at every node), and each node's rows sorted per feature,
// kept in lockstep with work_.
struct RegressionTree::ExactScan {
  const Matrix& columns;
  ScanFn scan;
  ScanBuffers buffers;
  std::vector<double> total_sum;  // n_outputs_
  ColumnSegments segments;
};

RegressionTree::RegressionTree(TreeParams params) : params_(params) {
  VARPRED_CHECK_ARG(params_.max_depth >= 1, "max_depth must be >= 1");
  VARPRED_CHECK_ARG(params_.min_samples_leaf >= 1,
                    "min_samples_leaf must be >= 1");
}

void RegressionTree::fit(const Matrix& x, const Matrix& y,
                         const SortedColumns* presorted) {
  VARPRED_CHECK_ARG(presorted == nullptr ||
                        (presorted->cols() == x.cols() &&
                         presorted->row_count() == x.rows()),
                    "presorted artifact does not match training matrix");
  SortedColumns own;
  if (presorted == nullptr) {
    own = SortedColumns::build(x);
    presorted = &own;
  }
  std::vector<std::size_t> all(x.rows());
  std::iota(all.begin(), all.end(), std::size_t{0});
  // A dataset-level artifact over x is exactly the all-rows sample order.
  fit_rows(x, y, all, ColumnSegments(*presorted));
}

void RegressionTree::fit_rows(const Matrix& x, const Matrix& y,
                              std::span<const std::size_t> indices,
                              ColumnSegments segments, const Matrix* columns) {
  grow(x, y, indices, std::move(segments), columns, nullptr);
}

void RegressionTree::fit_rows_predict(const Matrix& x, const Matrix& y,
                                      std::span<const std::size_t> indices,
                                      ColumnSegments segments,
                                      const Matrix* columns,
                                      std::span<const double> query,
                                      std::span<double> out) {
  VARPRED_CHECK_ARG(query.size() == x.cols(),
                    "query width does not match training matrix");
  VARPRED_CHECK_ARG(out.size() == y.cols(),
                    "output width does not match training targets");
  grow(x, y, indices, std::move(segments), columns, query.data());
  // The path ends in the only leaf the build made.
  std::copy(leaf_values_.begin(), leaf_values_.end(), out.begin());
  release(nodes_);
  release(leaf_values_);
}

void RegressionTree::grow(const Matrix& x, const Matrix& y,
                          std::span<const std::size_t> indices,
                          ColumnSegments segments, const Matrix* columns,
                          const double* query) {
  VARPRED_CHECK_ARG(x.rows() == y.rows(), "X/Y row count mismatch");
  VARPRED_CHECK_ARG(!indices.empty(), "cannot fit on zero rows");
  VARPRED_CHECK_ARG(x.rows() <= UINT32_MAX, "row ids do not fit 32 bits");
  VARPRED_CHECK_ARG(
      segments.cols() == x.cols() && segments.rows() == indices.size(),
      "column segments do not match sample");
  nodes_.clear();
  leaf_values_.clear();
  n_outputs_ = y.cols();
  work_.assign(indices.begin(), indices.end());

  Matrix own_columns;
  if (columns == nullptr) {
    own_columns = x.transposed();
    columns = &own_columns;
  }
  VARPRED_CHECK_ARG(columns->rows() == x.cols() && columns->cols() == x.rows(),
                    "column-major copy does not match training matrix");
  ExactScan exact{*columns, feature_scan(indices.size()),
                  ScanBuffers(indices.size(), n_outputs_),
                  std::vector<double>(n_outputs_), std::move(segments)};
  exact_ = &exact;
  query_ = query;

  build(x, y, 0, work_.size(), 0);

  release(work_);
  exact_ = nullptr;
  query_ = nullptr;
}

std::size_t RegressionTree::retained_bytes() const {
  return nodes_.capacity() * sizeof(Node) +
         leaf_values_.capacity() * sizeof(double) +
         work_.capacity() * sizeof(std::size_t);
}

std::int32_t RegressionTree::make_leaf(const Matrix& y, std::size_t begin,
                                       std::size_t end, std::size_t depth) {
  const std::int32_t offset = static_cast<std::int32_t>(leaf_values_.size());
  leaf_values_.resize(leaf_values_.size() + n_outputs_, 0.0);
  const double inv = 1.0 / static_cast<double>(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    const auto row = y.row(work_[i]);
    for (std::size_t c = 0; c < n_outputs_; ++c) {
      leaf_values_[offset + c] += row[c] * inv;
    }
  }
  Node node;
  node.feature = -1;
  node.value_offset = offset;
  node.node_depth = static_cast<std::int32_t>(depth);
  nodes_.push_back(node);
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

std::int32_t RegressionTree::build(const Matrix& x, const Matrix& y,
                                   std::size_t begin, std::size_t end,
                                   std::size_t depth) {
  const std::size_t n = end - begin;
  if (depth >= params_.max_depth || n < params_.min_samples_split ||
      n < 2 * params_.min_samples_leaf) {
    return make_leaf(y, begin, end, depth);
  }

  // Parent statistics: per-output sums and the total sum of squares.
  std::vector<double>& total_sum = exact_->total_sum;
  std::fill(total_sum.begin(), total_sum.end(), 0.0);
  double total_sq = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const auto row = y.row(work_[i]);
    for (std::size_t c = 0; c < n_outputs_; ++c) {
      total_sum[c] += row[c];
      total_sq += row[c] * row[c];
    }
  }
  double parent_sse = total_sq;
  for (std::size_t c = 0; c < n_outputs_; ++c) {
    parent_sse -= total_sum[c] * total_sum[c] / static_cast<double>(n);
  }
  if (parent_sse <= 1e-14) return make_leaf(y, begin, end, depth);

  BestSplit best{.sse = parent_sse - 1e-12};

  // Exact search over each feature's rows in (value, index) order: the
  // node's column segment.
  std::size_t scored = 0;
  for (std::size_t f = 0; f < x.cols(); ++f) {
    scored += exact_->scan(f, exact_->segments.segment(f, begin, end),
                           exact_->columns.row(f), y.data().data(),
                           total_sum.data(), total_sq,
                           params_.min_samples_leaf, exact_->buffers, best);
  }
  VARPRED_OBS_COUNT("ml.tree.candidates_scored", scored);

  if (best.feature < 0) return make_leaf(y, begin, end, depth);

  // Partition work_[begin, end) around the chosen threshold.
  const auto f = static_cast<std::size_t>(best.feature);
  const auto mid_it = std::partition(
      work_.begin() + static_cast<std::ptrdiff_t>(begin),
      work_.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t idx) { return x(idx, f) <= best.threshold; });
  const auto mid =
      static_cast<std::size_t>(mid_it - work_.begin());
  if (mid == begin || mid == end) {
    return make_leaf(y, begin, end, depth);  // numeric degeneracy guard
  }
  VARPRED_OBS_COUNT("ml.tree.nodes_split", 1);
  VARPRED_OBS_COUNT("ml.tree.rows_partitioned", n);

  // A query-path fit grows only the child the query falls in, by predict's
  // `<=` (a NaN goes right); the other child stays a stub (index -1).
  const bool grow_left = query_ == nullptr || query_[f] <= best.threshold;
  const bool grow_right = query_ == nullptr || !grow_left;

  // Keep every column's range partitioned in lockstep with work_, unless
  // depth or size already makes every child grown here a leaf: then no
  // scan reads the segments again.
  const auto may_split = [&](std::size_t rows) {
    return depth + 1 < params_.max_depth &&
           rows >= params_.min_samples_split &&
           rows >= 2 * params_.min_samples_leaf;
  };
  if ((grow_left && may_split(mid - begin)) ||
      (grow_right && may_split(end - mid))) {
    exact_->segments.split(f, exact_->columns.row(f), best.threshold, begin,
                           end);
  }

  // Reserve this node's slot before building children.
  nodes_.emplace_back();
  const auto self = static_cast<std::int32_t>(nodes_.size() - 1);
  nodes_[self].feature = best.feature;
  nodes_[self].threshold = best.threshold;
  nodes_[self].node_depth = static_cast<std::int32_t>(depth);
  const std::int32_t left =
      grow_left ? build(x, y, begin, mid, depth + 1) : -1;
  const std::int32_t right =
      grow_right ? build(x, y, mid, end, depth + 1) : -1;
  nodes_[self].left = left;
  nodes_[self].right = right;
  return self;
}

std::vector<double> RegressionTree::predict(
    std::span<const double> row) const {
  VARPRED_CHECK(trained(), "predict before fit");
  std::int32_t idx = 0;
  for (;;) {
    const Node& node = nodes_[static_cast<std::size_t>(idx)];
    if (node.feature < 0) {
      const auto off = static_cast<std::size_t>(node.value_offset);
      return {leaf_values_.begin() + static_cast<std::ptrdiff_t>(off),
              leaf_values_.begin() +
                  static_cast<std::ptrdiff_t>(off + n_outputs_)};
    }
    VARPRED_CHECK(static_cast<std::size_t>(node.feature) < row.size(),
                  "feature index out of range in predict");
    idx = row[static_cast<std::size_t>(node.feature)] <= node.threshold
              ? node.left
              : node.right;
  }
}

std::unique_ptr<Regressor> RegressionTree::clone() const {
  return std::make_unique<RegressionTree>(*this);
}

std::size_t RegressionTree::leaf_count() const {
  std::size_t count = 0;
  for (const auto& n : nodes_) count += (n.feature < 0);
  return count;
}

std::size_t RegressionTree::depth() const {
  std::size_t d = 0;
  for (const auto& n : nodes_) {
    d = std::max(d, static_cast<std::size_t>(n.node_depth));
  }
  return d;
}

}  // namespace varpred::ml
