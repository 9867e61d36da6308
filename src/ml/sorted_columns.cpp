#include "ml/sorted_columns.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>

#include "common/check.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"

#ifdef VARPRED_SIMD_AVX2
#include <immintrin.h>
#endif

namespace varpred::ml {

SortedColumns SortedColumns::build(const Matrix& x) {
  VARPRED_CHECK_ARG(!x.empty(), "cannot presort an empty matrix");
  obs::Span span("ml.sorted_columns.build");
  VARPRED_OBS_COUNT("ml.sorted_columns.builds", 1);
  SortedColumns out;
  out.order.assign(x.cols(), std::vector<std::size_t>(x.rows()));
  parallel_for(x.cols(), [&](std::size_t c) {
    auto& col_order = out.order[c];
    std::iota(col_order.begin(), col_order.end(), std::size_t{0});
    std::sort(col_order.begin(), col_order.end(),
              [&](std::size_t a, std::size_t b) {
                const double va = x(a, c);
                const double vb = x(b, c);
                if (va != vb) return va < vb;
                return a < b;
              });
  });
  return out;
}

namespace {

// Multiplicity of each of the n source rows in the sample `rows`, which
// must be ascending (strictly, when `strict`) and index rows below n.
std::vector<std::uint32_t> multiplicities(std::span<const std::size_t> rows,
                                          std::size_t n, bool strict) {
  VARPRED_CHECK_ARG(!rows.empty(), "cannot filter to an empty row set");
  std::vector<std::uint32_t> count(n, 0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::size_t r = rows[i];
    VARPRED_CHECK_ARG(r < n, "filtered row index out of range");
    if (i > 0) {
      VARPRED_CHECK_ARG(strict ? r > rows[i - 1] : r >= rows[i - 1],
                        "filtered rows must be ascending");
    }
    ++count[r];
  }
  return count;
}

}  // namespace

SortedColumns SortedColumns::filtered(
    std::span<const std::size_t> rows) const {
  const std::vector<std::uint32_t> count =
      multiplicities(rows, row_count(), /*strict=*/true);
  VARPRED_OBS_COUNT("ml.sorted_columns.filters", 1);
  // Each source row's row number in the gathered submatrix.
  std::vector<std::size_t> position(row_count(), 0);
  for (std::size_t i = 0; i < rows.size(); ++i) position[rows[i]] = i;

  SortedColumns out;
  out.order.resize(order.size());
  for (std::size_t c = 0; c < order.size(); ++c) {
    std::vector<std::size_t> col_order;
    col_order.reserve(rows.size());
    for (const std::size_t r : order[c]) {
      if (count[r] != 0) col_order.push_back(position[r]);
    }
    out.order[c] = std::move(col_order);
  }
  return out;
}

ColumnSegments::ColumnSegments(const SortedColumns& sorted)
    : rows_(sorted.row_count()), cols_(sorted.cols()) {
  order_.reserve(rows_ * cols_);
  std::size_t max_row = 0;
  for (const auto& column : sorted.order) {
    for (const std::size_t row : column) {
      max_row = std::max(max_row, row);
      order_.push_back(static_cast<std::uint32_t>(row));
    }
  }
  VARPRED_CHECK_ARG(max_row <= UINT32_MAX, "row ids do not fit 32 bits");
  spill_.resize(rows_);
  go_left_.resize(rows_ == 0 ? 0 : max_row + 1);
}

ColumnSegments::ColumnSegments(const SortedColumns& base,
                               std::span<const std::size_t> rows)
    : rows_(rows.size()), cols_(base.cols()) {
  const std::vector<std::uint32_t> count =
      multiplicities(rows, base.row_count(), /*strict=*/false);
  VARPRED_CHECK_ARG(rows.back() <= UINT32_MAX, "row ids do not fit 32 bits");
  order_.resize(rows_ * cols_);
  std::uint32_t* out = order_.data();
  for (const auto& column : base.order) {
    for (const std::size_t r : column) {
      for (std::uint32_t k = 0; k < count[r]; ++k) {
        *out++ = static_cast<std::uint32_t>(r);
      }
    }
  }
  spill_.resize(rows_);
  go_left_.resize(rows.back() + 1);
}

namespace {

// One step of the stable partition of a column: writes row id seg[i] at the
// left cursor (in place; left <= i, so no unread id is overwritten) and at
// the right cursor of the spill, then advances the cursor its go-left flag
// names. No branch depends on the data.
inline void partition_step(std::uint32_t* seg, std::size_t i,
                           const std::uint8_t* go_left, std::uint32_t* spill,
                           std::size_t& left, std::size_t& right) {
  const std::uint32_t row = seg[i];
  const std::size_t goes_left = go_left[row];
  seg[left] = row;
  spill[right] = row;
  left += goes_left;
  right += 1 - goes_left;
}

// Stable-partitions rows [begin, end) of each of the `cols` columns of
// `order` (column c at [c * rows, (c + 1) * rows)) by their go-left flags:
// the left side in place, the right side through `spill`, then copied back.
void partition_columns(std::uint32_t* order, std::size_t rows,
                       std::size_t cols, std::size_t begin, std::size_t end,
                       const std::uint8_t* go_left, std::uint32_t* spill) {
  for (std::size_t c = 0; c < cols; ++c) {
    std::uint32_t* seg = order + c * rows;
    std::size_t left = begin;
    std::size_t right = 0;
    for (std::size_t i = begin; i < end; ++i) {
      partition_step(seg, i, go_left, spill, left, right);
    }
    std::copy_n(spill, right, seg + left);
  }
}

#ifdef VARPRED_SIMD_AVX2

// kLeftPack[m]: the lanes of the set bits of m in ascending order, then
// those of the clear bits: the vpermd indices that left-pack the lanes m
// selects, keeping their order. kLeftPack[m ^ 0xFF] left-packs the others.
constexpr auto kLeftPack = [] {
  std::array<std::array<std::uint8_t, 8>, 256> table{};
  for (unsigned m = 0; m < 256; ++m) {
    std::size_t next = 0;
    for (const unsigned want : {1U, 0U}) {
      for (unsigned lane = 0; lane < 8; ++lane) {
        if (((m >> lane) & 1U) == want) {
          table[m][next++] = static_cast<std::uint8_t>(lane);
        }
      }
    }
  }
  return table;
}();

__attribute__((target("avx2"))) inline __m256i left_pack_indices(
    unsigned mask) {
  const auto* lanes = reinterpret_cast<const __m128i*>(kLeftPack[mask].data());
  return _mm256_cvtepu8_epi32(_mm_loadl_epi64(lanes));
}

// partition_columns with eight row ids per step while eight remain: the
// go-left mask of a block's ids packs them to the left cursor and to the
// spill's right cursor, one 8-id store each, and both cursors advance by
// the mask's popcount. Lanes past a cursor's advance hold ids of the other
// side, which later stores or the spill copy overwrite. Both stores stay in
// bounds and clobber no unread id: before a step, left <= i and
// right <= i - begin, with i + 8 <= end <= rows. The last end - i < 8 ids
// take partition_step.
__attribute__((target("avx2"))) void partition_columns_avx2(
    std::uint32_t* order, std::size_t rows, std::size_t cols,
    std::size_t begin, std::size_t end, const std::uint8_t* go_left,
    std::uint32_t* spill) {
  for (std::size_t c = 0; c < cols; ++c) {
    std::uint32_t* seg = order + c * rows;
    std::size_t left = begin;
    std::size_t right = 0;
    std::size_t i = begin;
    for (; i + 8 <= end; i += 8) {
      const __m256i ids =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(seg + i));
      unsigned mask = 0;
      for (unsigned lane = 0; lane < 8; ++lane) {
        mask |= unsigned{go_left[seg[i + lane]]} << lane;
      }
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(seg + left),
          _mm256_permutevar8x32_epi32(ids, left_pack_indices(mask)));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(spill + right),
          _mm256_permutevar8x32_epi32(ids, left_pack_indices(mask ^ 0xFFU)));
      const auto n_left = static_cast<std::size_t>(std::popcount(mask));
      left += n_left;
      right += 8 - n_left;
    }
    for (; i < end; ++i) partition_step(seg, i, go_left, spill, left, right);
    std::copy_n(spill, right, seg + left);
  }
}

// Whether split() packs eight row ids per step.
bool left_pack() {
  static const bool enabled = avx2_enabled();
  return enabled;
}

#endif  // VARPRED_SIMD_AVX2

}  // namespace

void ColumnSegments::split(std::size_t f, std::span<const double> values,
                           double threshold, std::size_t begin,
                           std::size_t end) {
  for (const std::uint32_t row : segment(f, begin, end)) {
    go_left_[row] = values[row] <= threshold;
  }
#ifdef VARPRED_SIMD_AVX2
  if (left_pack()) {
    partition_columns_avx2(order_.data(), rows_, cols_, begin, end,
                           go_left_.data(), spill_.data());
    return;
  }
#endif
  partition_columns(order_.data(), rows_, cols_, begin, end, go_left_.data(),
                    spill_.data());
}

void ColumnSegments::reset_to(const ColumnSegments& root) {
  VARPRED_CHECK_ARG(root.rows_ == rows_ && root.cols_ == cols_,
                    "column segments shape mismatch");
  std::copy(root.order_.begin(), root.order_.end(), order_.begin());
}

}  // namespace varpred::ml
