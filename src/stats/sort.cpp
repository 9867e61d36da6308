#include "stats/sort.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace varpred::stats {
namespace {

// Below this size std::sort is cheaper than the radix passes' fixed cost
// (eight 256-entry histograms).
constexpr std::size_t kRadixMinSize = 128;

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

// Unsigned key with the order of the doubles: a non-negative value gets its
// sign bit set, so it sorts after every negative one; a negative value gets
// all its bits flipped, so a larger magnitude sorts first.
std::uint64_t sort_key(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return bits ^ ((std::uint64_t{0} - (bits >> 63)) | kSignBit);
}

double from_sort_key(std::uint64_t key) {
  return std::bit_cast<double>(key ^ (((key >> 63) - 1) | kSignBit));
}

}  // namespace

void sort_samples(std::span<double> sample) {
  VARPRED_CHECK_ARG(std::none_of(sample.begin(), sample.end(),
                                 [](double x) { return std::isnan(x); }),
                    "cannot sort a sample that holds NaN");
  const std::size_t n = sample.size();
  if (n < kRadixMinSize) {
    std::sort(sample.begin(), sample.end());
    return;
  }

  std::vector<std::uint64_t> buffer(2 * n);
  std::uint64_t* keys = buffer.data();
  std::uint64_t* spare = keys + n;
  // counts[d][v]: how many keys have value v in digit d (bits 8d..8d+7).
  std::array<std::array<std::size_t, 256>, 8> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = sort_key(sample[i]);
    keys[i] = key;
    for (int d = 0; d < 8; ++d) ++counts[d][(key >> (8 * d)) & 0xFF];
  }
  for (int d = 0; d < 8; ++d) {
    const int shift = 8 * d;
    auto& count = counts[d];
    if (count[(keys[0] >> shift) & 0xFF] == n) continue;  // constant digit
    std::size_t offset = 0;
    for (std::size_t& c : count) {
      const std::size_t here = c;
      c = offset;
      offset += here;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = keys[i];
      spare[count[(key >> shift) & 0xFF]++] = key;
    }
    std::swap(keys, spare);
  }
  for (std::size_t i = 0; i < n; ++i) sample[i] = from_sort_key(keys[i]);
}

}  // namespace varpred::stats
