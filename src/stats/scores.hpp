// The three accuracy scores of one measured/predicted sample pair, read
// from one sorted pair.
//
// KS, W1 and overlap each need their samples in ascending order. Scoring
// them one by one would copy and sort both samples three times; this sorts
// each once and hands the sorted pair to every kernel.
#pragma once

#include <span>

namespace varpred::stats {

/// KS, normalized W1 and overlap of one sample pair.
struct PairScores {
  double ks = 1.0;            ///< two-sample KS statistic (0 = perfect)
  double wasserstein1 = 0.0;  ///< W1 over the pooled population sd
  double overlap = 0.0;       ///< overlap coefficient (1 = perfect)
};

/// Scores a pair the caller owns and lets go of: sorts both samples in
/// place (sort_samples), with no copies. Each score equals its unsorted
/// function (ks_statistic, wasserstein1_normalized, overlap_coefficient)
/// bit for bit: the W1 variances are taken before the sort, in the
/// samples' given order. Throws std::invalid_argument on an empty sample,
/// a NaN or an infinity.
PairScores score_pair_in_place(std::span<double> a, std::span<double> b);

}  // namespace varpred::stats
