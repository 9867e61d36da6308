#include "stats/scores.hpp"

#include "stats/ks.hpp"
#include "stats/moments.hpp"
#include "stats/overlap.hpp"
#include "stats/sort.hpp"
#include "stats/wasserstein.hpp"

namespace varpred::stats {

PairScores score_pair_in_place(std::span<double> a, std::span<double> b) {
  const double var_a = population_variance(a);
  const double var_b = population_variance(b);
  sort_samples(a);
  sort_samples(b);
  PairScores scores;
  scores.ks = ks_statistic_sorted(a, b);
  scores.wasserstein1 =
      normalize_wasserstein1(wasserstein1_sorted(a, b), var_a, var_b);
  scores.overlap = overlap_coefficient_sorted(a, b);
  return scores;
}

}  // namespace varpred::stats
