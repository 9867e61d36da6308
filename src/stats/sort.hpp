// The one sample sort of the scorers. Every two-sample score (KS, W1,
// overlap) reads its samples in sorted order; sort_samples is how they get
// there.
#pragma once

#include <span>

namespace varpred::stats {

/// Sorts a sample ascending, in place, with an LSD radix sort on the
/// order-preserving key of each value's IEEE-754 bits (8-bit digits; a
/// digit every value shares is skipped). Small samples go to std::sort.
/// The result is a valid std::sort order; the only freedom taken is that
/// -0 comes before +0. Throws std::invalid_argument on a NaN, leaving the
/// sample unchanged: NaN has no place in an ascending order.
void sort_samples(std::span<double> sample);

}  // namespace varpred::stats
