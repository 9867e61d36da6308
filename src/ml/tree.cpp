#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "obs/obs.hpp"

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
  std::vector<std::uint32_t> candidates;  // n: candidates' split positions

  ScanBuffers() = default;
  ScanBuffers(std::size_t n, std::size_t o)
      : running(o), left((n + 3) * o, 0.0), candidates(n) {}
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

}  // namespace

// Exact split search state for one fit: the column-major copy of x the
// scans read values from, the scan's scratch, and — when every split
// considers every feature — each node's rows sorted per feature, kept in
// lockstep with work_.
struct RegressionTree::ExactScan {
  const Matrix& columns;
  ScanBuffers buffers;
  std::optional<ColumnSegments> segments;
};

RegressionTree::RegressionTree(TreeParams params) : params_(params) {
  VARPRED_CHECK_ARG(params_.max_depth >= 1, "max_depth must be >= 1");
  VARPRED_CHECK_ARG(params_.min_samples_leaf >= 1,
                    "min_samples_leaf must be >= 1");
}

void RegressionTree::fit(const Matrix& x, const Matrix& y,
                         const SortedColumns* presorted) {
  std::vector<std::size_t> all(x.rows());
  std::iota(all.begin(), all.end(), std::size_t{0});
  // A dataset-level artifact over x is exactly the all-rows sample order.
  fit_rows(x, y, all, presorted);
}

bool RegressionTree::all_features(std::size_t n_features) const {
  return params_.max_features == 0 || params_.max_features >= n_features;
}

void RegressionTree::fit_rows(const Matrix& x, const Matrix& y,
                              std::span<const std::size_t> indices,
                              const SortedColumns* presorted,
                              const Matrix* columns) {
  VARPRED_CHECK_ARG(presorted == nullptr ||
                        (presorted->cols() == x.cols() &&
                         presorted->row_count() == indices.size()),
                    "presorted artifact does not match sample");
  std::optional<ColumnSegments> segments;
  if (presorted != nullptr && all_features(x.cols())) {
    segments.emplace(*presorted);
  }
  fit_sample(x, y, indices, std::move(segments), columns);
}

void RegressionTree::fit_rows(const Matrix& x, const Matrix& y,
                              std::span<const std::size_t> indices,
                              ColumnSegments segments, const Matrix* columns) {
  VARPRED_CHECK_ARG(
      segments.cols() == x.cols() && segments.rows() == indices.size(),
      "column segments do not match sample");
  std::optional<ColumnSegments> used;
  if (all_features(x.cols())) used.emplace(std::move(segments));
  fit_sample(x, y, indices, std::move(used), columns);
}

void RegressionTree::fit_sample(const Matrix& x, const Matrix& y,
                                std::span<const std::size_t> indices,
                                std::optional<ColumnSegments> segments,
                                const Matrix* columns) {
  VARPRED_CHECK_ARG(x.rows() == y.rows(), "X/Y row count mismatch");
  VARPRED_CHECK_ARG(!indices.empty(), "cannot fit on zero rows");
  VARPRED_CHECK_ARG(x.rows() <= UINT32_MAX, "row ids do not fit 32 bits");
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
  ExactScan exact{*columns, ScanBuffers(indices.size(), n_outputs_),
                  std::move(segments)};
  exact_ = &exact;

  Rng rng(params_.seed);
  build(x, y, 0, work_.size(), 0, rng);

  release(work_);
  exact_ = nullptr;
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
                                   std::size_t depth, Rng& rng) {
  const std::size_t n = end - begin;
  if (depth >= params_.max_depth || n < params_.min_samples_split ||
      n < 2 * params_.min_samples_leaf) {
    return make_leaf(y, begin, end, depth);
  }

  // Candidate features: all, or a deterministic random subset.
  const std::size_t n_features = x.cols();
  std::vector<std::size_t> features(n_features);
  std::iota(features.begin(), features.end(), std::size_t{0});
  std::size_t n_candidates = n_features;
  if (params_.max_features > 0 && params_.max_features < n_features) {
    // Fisher-Yates prefix shuffle.
    n_candidates = params_.max_features;
    for (std::size_t i = 0; i < n_candidates; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng.uniform_index(n_features - i));
      std::swap(features[i], features[j]);
    }
  }

  // Parent statistics: per-output sums and the total sum of squares.
  std::vector<double> total_sum(n_outputs_, 0.0);
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

  // Exact search over each candidate feature's rows in (value, index)
  // order: the node's column segment, or else a per-node sort — the
  // oracle the segments are tested against, and the path that runs when
  // splits sample features.
  std::vector<std::uint32_t> sorted;
  if (!exact_->segments) {
    sorted.assign(work_.begin() + static_cast<std::ptrdiff_t>(begin),
                  work_.begin() + static_cast<std::ptrdiff_t>(end));
  }
  std::size_t scored = 0;
  for (std::size_t fi = 0; fi < n_candidates; ++fi) {
    const std::size_t f = features[fi];
    std::span<const std::uint32_t> rows;
    if (exact_->segments) {
      rows = exact_->segments->segment(f, begin, end);
    } else {
      std::sort(sorted.begin(), sorted.end(),
                [&](std::size_t a, std::size_t b) {
                  const double va = x(a, f);
                  const double vb = x(b, f);
                  if (va != vb) return va < vb;
                  return a < b;  // deterministic ties
                });
      rows = sorted;
    }
    scored += scan_feature(f, rows, exact_->columns.row(f), y.data().data(),
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

  // Keep every column's range partitioned in lockstep with work_, unless
  // depth or size already makes both children leaves: then no scan reads
  // the segments again.
  const auto may_split = [&](std::size_t rows) {
    return depth + 1 < params_.max_depth &&
           rows >= params_.min_samples_split &&
           rows >= 2 * params_.min_samples_leaf;
  };
  if (exact_->segments && (may_split(mid - begin) || may_split(end - mid))) {
    exact_->segments->split(f, exact_->columns.row(f), best.threshold, begin,
                            end);
  }

  // Reserve this node's slot before building children.
  nodes_.emplace_back();
  const auto self = static_cast<std::int32_t>(nodes_.size() - 1);
  nodes_[self].feature = best.feature;
  nodes_[self].threshold = best.threshold;
  nodes_[self].node_depth = static_cast<std::int32_t>(depth);
  const std::int32_t left = build(x, y, begin, mid, depth + 1, rng);
  const std::int32_t right = build(x, y, mid, end, depth + 1, rng);
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
