// Tests for the statistics substrate: moments (and their dispatched Welford
// kernel), quantiles/ECDF, KS, histograms, KDE, bootstrap, and summaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "rngdist/samplers.hpp"
#include "stats/bootstrap.hpp"
#include "stats/ecdf.hpp"
#include "stats/histogram.hpp"
#include "stats/kde.hpp"
#include "stats/ks.hpp"
#include "stats/moments.hpp"
#include "stats/summary.hpp"
#include "stats/welford_simd.hpp"

namespace varpred::stats {
namespace {

TEST(Moments, KnownSmallSample) {
  // Symmetric sample: skewness 0.
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  const auto m = compute_moments(xs);
  EXPECT_DOUBLE_EQ(m.mean, 3.0);
  EXPECT_NEAR(m.stddev, std::sqrt(2.0), 1e-12);  // population sd
  EXPECT_NEAR(m.skewness, 0.0, 1e-12);
  EXPECT_NEAR(m.kurtosis, 1.7, 1e-12);  // discrete uniform on 5 points
  EXPECT_EQ(m.count, 5u);
}

TEST(Moments, DegenerateSamples) {
  const auto empty = compute_moments(std::vector<double>{});
  EXPECT_EQ(empty.count, 0u);
  const auto single = compute_moments(std::vector<double>{7.0});
  EXPECT_DOUBLE_EQ(single.mean, 7.0);
  EXPECT_DOUBLE_EQ(single.stddev, 0.0);
  const auto constant = compute_moments(std::vector<double>{2.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(constant.stddev, 0.0);
  EXPECT_DOUBLE_EQ(constant.skewness, 0.0);
  EXPECT_DOUBLE_EQ(constant.kurtosis, 3.0);
}

TEST(Moments, AccumulatorMergeEqualsBatch) {
  Rng rng(42);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = rngdist::gamma(rng, 2.0, 1.5);

  MomentAccumulator whole;
  for (const double x : xs) whole.add(x);

  MomentAccumulator left;
  MomentAccumulator right;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i < 1234 ? left : right).add(xs[i]);
  }
  left.merge(right);

  const auto a = whole.moments();
  const auto b = left.moments();
  EXPECT_NEAR(a.mean, b.mean, 1e-10);
  EXPECT_NEAR(a.stddev, b.stddev, 1e-10);
  EXPECT_NEAR(a.skewness, b.skewness, 1e-8);
  EXPECT_NEAR(a.kurtosis, b.kurtosis, 1e-8);
}

TEST(Moments, AccumulatorMergeWithEmptyIsBitExactIdentity) {
  Rng rng(43);
  MomentAccumulator filled;
  for (std::size_t i = 0; i < 100; ++i) {
    filled.add(rngdist::gamma(rng, 2.0, 1.5));
  }
  const auto before = filled.moments();

  // filled ∪ empty: no field may move by even one ulp — the streaming
  // layer relies on absent windows acting as exact merge identities.
  MomentAccumulator empty;
  filled.merge(empty);
  const auto after = filled.moments();
  EXPECT_EQ(after.count, before.count);
  EXPECT_EQ(after.mean, before.mean);
  EXPECT_EQ(after.stddev, before.stddev);
  EXPECT_EQ(after.skewness, before.skewness);
  EXPECT_EQ(after.kurtosis, before.kurtosis);

  // empty ∪ filled reproduces filled bit-exactly too.
  MomentAccumulator adopted;
  adopted.merge(filled);
  const auto copy = adopted.moments();
  EXPECT_EQ(copy.count, before.count);
  EXPECT_EQ(copy.mean, before.mean);
  EXPECT_EQ(copy.stddev, before.stddev);
  EXPECT_EQ(copy.skewness, before.skewness);
  EXPECT_EQ(copy.kurtosis, before.kurtosis);
}

TEST(Moments, AccumulatorMergeIsAssociative) {
  Rng rng(44);
  std::vector<double> xs(3000);
  for (auto& x : xs) x = rngdist::lognormal(rng, 0.0, 0.4);

  const auto chunk = [&](std::size_t lo, std::size_t hi) {
    MomentAccumulator acc;
    for (std::size_t i = lo; i < hi; ++i) acc.add(xs[i]);
    return acc;
  };
  const auto a = chunk(0, 700);
  const auto b = chunk(700, 1900);
  const auto c = chunk(1900, xs.size());

  MomentAccumulator left_first = a;
  left_first.merge(b);
  left_first.merge(c);

  MomentAccumulator right_first = b;
  right_first.merge(c);
  MomentAccumulator outer = a;
  outer.merge(right_first);

  const auto lm = left_first.moments();
  const auto rm = outer.moments();
  EXPECT_EQ(lm.count, rm.count);
  EXPECT_NEAR(lm.mean, rm.mean, 1e-12);
  EXPECT_NEAR(lm.stddev, rm.stddev, 1e-10);
  EXPECT_NEAR(lm.skewness, rm.skewness, 1e-8);
  EXPECT_NEAR(lm.kurtosis, rm.kurtosis, 1e-8);
}

TEST(Moments, SampleAndPopulationVarianceConventions) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Squared deviations from the mean 5 sum to 32.
  EXPECT_DOUBLE_EQ(population_variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(sample_variance(xs), 32.0 / 7.0);
  // Moments::stddev reports the population convention.
  EXPECT_NEAR(compute_moments(xs).stddev, 2.0, 1e-12);
  const std::vector<double> one = {3.0};
  EXPECT_EQ(population_variance(one), 0.0);
  EXPECT_EQ(sample_variance(one), 0.0);
  EXPECT_EQ(sample_variance(std::vector<double>{}), 0.0);
}

TEST(Moments, FromRawRebuildsAccumulatorState) {
  // {1, 2, 3, 4}: mean 2.5, central sums m2 = 5, m3 = 0, m4 = 10.25.
  const auto whole = MomentAccumulator::from_raw(4, 2.5, 5.0, 0.0, 10.25);
  EXPECT_EQ(whole.count(), 4u);
  const Moments m = whole.moments();
  const Moments batch = compute_moments(std::vector<double>{1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(m.mean, batch.mean);
  EXPECT_NEAR(m.stddev, batch.stddev, 1e-15);
  EXPECT_NEAR(m.skewness, 0.0, 1e-15);
  EXPECT_NEAR(m.kurtosis, 1.64, 1e-12);
  EXPECT_NEAR(m.kurtosis, batch.kurtosis, 1e-12);
  // Raw states of the halves {1, 2} and {3, 4} merge to the whole.
  auto merged = MomentAccumulator::from_raw(2, 1.5, 0.5, 0.0, 0.125);
  merged.merge(MomentAccumulator::from_raw(2, 3.5, 0.5, 0.0, 0.125));
  EXPECT_EQ(merged.count(), 4u);
  EXPECT_DOUBLE_EQ(merged.moments().mean, m.mean);
  EXPECT_NEAR(merged.moments().stddev, m.stddev, 1e-15);
  EXPECT_NEAR(merged.moments().kurtosis, m.kurtosis, 1e-12);
}

TEST(Moments, MatchesNormalTheory) {
  Rng rng(1);
  MomentAccumulator acc;
  for (int i = 0; i < 200000; ++i) acc.add(rngdist::normal(rng, 5.0, 2.0));
  const auto m = acc.moments();
  EXPECT_NEAR(m.mean, 5.0, 0.02);
  EXPECT_NEAR(m.stddev, 2.0, 0.02);
  EXPECT_NEAR(m.skewness, 0.0, 0.03);
  EXPECT_NEAR(m.kurtosis, 3.0, 0.06);
}

TEST(Moments, ToRelativeNormalizesMeanToOne) {
  const std::vector<double> xs = {10.0, 20.0, 30.0};
  const auto rel = to_relative(xs);
  EXPECT_NEAR(mean(rel), 1.0, 1e-12);
  EXPECT_NEAR(rel[0], 0.5, 1e-12);
  EXPECT_THROW(to_relative(std::vector<double>{-1.0, 1.0, 0.0}),
               std::invalid_argument);
}

TEST(Moments, VectorRoundTrip) {
  Moments m;
  m.mean = 1.0;
  m.stddev = 0.1;
  m.skewness = 0.5;
  m.kurtosis = 4.2;
  const auto v = m.to_vector();
  const auto back = Moments::from_vector(v);
  EXPECT_DOUBLE_EQ(back.kurtosis, 4.2);
  EXPECT_DOUBLE_EQ(back.skewness, 0.5);
}

TEST(Ecdf, StepFunctionValues) {
  const std::vector<double> xs = {1.0, 2.0, 2.0, 4.0};
  const Ecdf f(xs);
  EXPECT_DOUBLE_EQ(f(0.5), 0.0);
  EXPECT_DOUBLE_EQ(f(1.0), 0.25);
  EXPECT_DOUBLE_EQ(f(2.0), 0.75);
  EXPECT_DOUBLE_EQ(f(3.0), 0.75);
  EXPECT_DOUBLE_EQ(f(4.0), 1.0);
  EXPECT_DOUBLE_EQ(f(9.0), 1.0);
}

TEST(Quantiles, LinearInterpolation) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
  EXPECT_DOUBLE_EQ(iqr(xs), 1.5);
  EXPECT_THROW(quantile(xs, 1.5), std::invalid_argument);
}

// Boundary behavior of quantile/quantile_sorted: p=0 and p=1 are the
// sample extremes, n=1 returns the sole element at every p, and invalid
// input (empty sample, p outside [0, 1]) throws rather than indexing out
// of range or silently clamping.
TEST(Quantiles, BoundaryAndDegenerateInputs) {
  const std::vector<double> one = {3.5};
  EXPECT_DOUBLE_EQ(quantile(one, 0.0), 3.5);
  EXPECT_DOUBLE_EQ(quantile(one, 0.5), 3.5);
  EXPECT_DOUBLE_EQ(quantile(one, 1.0), 3.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(one, 1.0), 3.5);

  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};  // unsorted input
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 1.0), 4.0);

  const std::vector<double> empty;
  EXPECT_THROW(quantile(empty, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile_sorted(empty, 0.5), std::invalid_argument);
  EXPECT_THROW(median(empty), std::invalid_argument);
  EXPECT_THROW(quantile(xs, -0.001), std::invalid_argument);
  EXPECT_THROW(quantile_sorted(sorted, 1.001), std::invalid_argument);
}

TEST(Ks, IdenticalSamplesScoreNearZero) {
  Rng rng(3);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = rngdist::normal(rng);
  EXPECT_DOUBLE_EQ(ks_statistic(xs, xs), 0.0);
}

TEST(Ks, DisjointSamplesScoreOne) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {10.0, 11.0};
  EXPECT_DOUBLE_EQ(ks_statistic(a, b), 1.0);
}

TEST(Ks, SymmetricInArguments) {
  Rng rng(4);
  std::vector<double> a(500);
  std::vector<double> b(700);
  for (auto& x : a) x = rngdist::normal(rng, 0.0, 1.0);
  for (auto& x : b) x = rngdist::normal(rng, 0.3, 1.0);
  EXPECT_DOUBLE_EQ(ks_statistic(a, b), ks_statistic(b, a));
}

TEST(Ks, DetectsLocationShift) {
  Rng rng(5);
  std::vector<double> a(5000);
  std::vector<double> b(5000);
  for (auto& x : a) x = rngdist::normal(rng, 0.0, 1.0);
  for (auto& x : b) x = rngdist::normal(rng, 1.0, 1.0);
  const double d = ks_statistic(a, b);
  // Theoretical KS distance between N(0,1) and N(1,1) is 2*Phi(0.5)-1 ~ 0.383.
  EXPECT_NEAR(d, 0.383, 0.03);
}

TEST(Ks, AgainstContinuousCdf) {
  Rng rng(6);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.uniform();
  const double d =
      ks_statistic_cdf(xs, [](double x) { return std::clamp(x, 0.0, 1.0); });
  EXPECT_LT(d, 0.02);
}

TEST(Ks, PvalueBehaviour) {
  // Small statistic on large samples -> high p-value; large -> tiny.
  EXPECT_GT(ks_pvalue(0.01, 1000, 1000), 0.9);
  EXPECT_LT(ks_pvalue(0.5, 1000, 1000), 1e-6);
}

TEST(Ks, KolmogorovSurvivalMatchesScipy) {
  // Golden values: scipy.special.kolmogorov(t), cross-checked against both
  // the theta-function and alternating series at 15 significant digits.
  EXPECT_NEAR(kolmogorov_survival(0.2), 0.999999999999495, 1e-12);
  EXPECT_NEAR(kolmogorov_survival(0.3), 0.999990694198665, 1e-12);
  EXPECT_NEAR(kolmogorov_survival(0.5), 0.963945243664875, 1e-12);
  EXPECT_NEAR(kolmogorov_survival(0.8), 0.544142411574198, 1e-12);
  EXPECT_NEAR(kolmogorov_survival(1.0), 0.269999671677355, 1e-12);
  EXPECT_NEAR(kolmogorov_survival(1.18), 0.123453809429766, 1e-12);
  EXPECT_NEAR(kolmogorov_survival(1.5), 0.0222179626165252, 1e-12);
  EXPECT_NEAR(kolmogorov_survival(2.0), 0.00067092525577972, 1e-12);
}

TEST(Ks, SurvivalIsMonotoneAndBounded) {
  double prev = 1.0;
  for (double t = 0.0; t <= 3.0; t += 0.01) {
    const double q = kolmogorov_survival(t);
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, prev + 1e-15);
    prev = q;
  }
}

// Regression: the old single-series implementation oscillated for small t
// (terms alternate +-2 and never shrink below the convergence cutoff), so a
// near-zero KS statistic reported p ~ 0 instead of p ~ 1.
TEST(Ks, TinyStatisticYieldsPvalueOne) {
  EXPECT_NEAR(ks_pvalue(1e-6, 1000, 1000), 1.0, 1e-12);
  EXPECT_NEAR(ks_pvalue(1e-9, 50, 50), 1.0, 1e-12);
  EXPECT_NEAR(ks_pvalue(0.0, 10, 10), 1.0, 0.0);
}

TEST(Histogram, CountsAndClamping) {
  Histogram h(0.0, 1.0, 10);
  h.add(-5.0);   // clamps into bin 0
  h.add(0.05);   // bin 0
  h.add(0.95);   // bin 9
  h.add(2.0);    // clamps into bin 9
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.counts()[0], 2.0);
  EXPECT_DOUBLE_EQ(h.counts()[9], 2.0);
  const auto probs = h.probabilities();
  double sum = 0.0;
  for (const double p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Histogram, BinCentersAndWidth) {
  Histogram h(1.0, 2.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_width(), 0.25);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 1.125);
  EXPECT_DOUBLE_EQ(h.bin_center(3), 1.875);
}

TEST(Histogram, BinOfClampsAndAddAllMatchesRepeatedAdd) {
  Histogram h(0.0, 1.0, 10);
  EXPECT_EQ(h.bin_count(), 10u);
  EXPECT_EQ(h.bin_of(-3.0), 0u);
  EXPECT_EQ(h.bin_of(0.0), 0u);
  EXPECT_EQ(h.bin_of(0.15), 1u);
  EXPECT_EQ(h.bin_of(0.999), 9u);
  EXPECT_EQ(h.bin_of(1.0), 9u);
  EXPECT_EQ(h.bin_of(7.0), 9u);

  Rng rng(21);
  std::vector<double> xs(500);
  for (auto& x : xs) x = rngdist::normal(rng, 0.5, 0.3);
  Histogram bulk(0.0, 1.0, 10);
  bulk.add_all(xs);
  Histogram one_by_one(0.0, 1.0, 10);
  for (const double x : xs) one_by_one.add(x);
  EXPECT_EQ(bulk.total(), xs.size());
  EXPECT_EQ(bulk.counts(), one_by_one.counts());
}

TEST(Histogram, DensitiesAreMassOverWidth) {
  EXPECT_EQ(Histogram(1.0, 3.0, 4).densities(),
            std::vector<double>(4, 0.0));
  Rng rng(22);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = rngdist::normal(rng, 2.0, 0.4);
  const auto h = Histogram::fit(xs, 1.0, 3.0, 16);
  const auto probs = h.probabilities();
  const auto dens = h.densities();
  ASSERT_EQ(dens.size(), 16u);
  double integral = 0.0;
  for (std::size_t i = 0; i < dens.size(); ++i) {
    EXPECT_NEAR(dens[i], probs[i] / h.bin_width(), 1e-12);
    integral += dens[i] * h.bin_width();
  }
  EXPECT_NEAR(integral, 1.0, 1e-12);
}

TEST(Histogram, SampleFromProbsReproducesShape) {
  // Two-bin histogram with 80/20 mass.
  const std::vector<double> probs = {0.8, 0.2};
  Rng rng(8);
  const auto xs =
      Histogram::sample_many_from_probs(probs, 0.0, 2.0, 50000, rng);
  int low = 0;
  for (const double x : xs) {
    ASSERT_GE(x, 0.0);
    ASSERT_LE(x, 2.0);
    low += (x < 1.0);
  }
  EXPECT_NEAR(static_cast<double>(low) / xs.size(), 0.8, 0.01);
}

TEST(Histogram, RoundTripKsIsSmall) {
  // encode -> sample should approximately reproduce the distribution.
  Rng rng(9);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rngdist::normal(rng, 1.0, 0.05);
  const auto h = Histogram::fit(xs, 0.7, 1.3, 48);
  const auto probs = h.probabilities();
  const auto ys =
      Histogram::sample_many_from_probs(probs, 0.7, 1.3, 20000, rng);
  EXPECT_LT(ks_statistic(xs, ys), 0.03);
}

TEST(Histogram, SuggestBinsScalesWithSample) {
  Rng rng(10);
  std::vector<double> small(50);
  std::vector<double> large(20000);
  for (auto& x : small) x = rngdist::normal(rng);
  for (auto& x : large) x = rngdist::normal(rng);
  EXPECT_LE(suggest_bins(small), suggest_bins(large));
  EXPECT_GE(suggest_bins(small), 8u);
  EXPECT_LE(suggest_bins(large), 128u);
}

TEST(Kde, IntegratesToOne) {
  Rng rng(11);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = rngdist::normal(rng, 0.0, 1.0);
  const Kde kde(xs);
  // Trapezoid integral of the KDE over a wide range.
  const auto grid = Kde::make_grid(-8.0, 8.0, 1601);
  double integral = 0.0;
  for (std::size_t i = 1; i < grid.size(); ++i) {
    integral += 0.5 * (kde(grid[i - 1]) + kde(grid[i])) *
                (grid[i] - grid[i - 1]);
  }
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(Kde, PeaksNearTheMode) {
  Rng rng(12);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = rngdist::normal(rng, 2.0, 0.3);
  const Kde kde(xs);
  EXPECT_GT(kde(2.0), kde(1.0));
  EXPECT_GT(kde(2.0), kde(3.0));
}

TEST(Kde, DegenerateSampleStaysFinite) {
  const std::vector<double> xs = {1.0, 1.0, 1.0};
  const Kde kde(xs);
  EXPECT_TRUE(std::isfinite(kde(1.0)));
  EXPECT_GT(kde(1.0), 0.0);
}

TEST(Kde, SilvermanBandwidthAndExplicitOverride) {
  // {1..5}: IQR/1.34 (2/1.34) is below the sd (sqrt(2.5)), so it sets the
  // spread.
  const std::vector<double> spread_by_iqr = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_NEAR(Kde(spread_by_iqr).bandwidth(),
              0.9 * (2.0 / 1.34) * std::pow(5.0, -0.2), 1e-12);
  // {0, 0, 1, 1}: the sd (sqrt(1/3)) is below IQR/1.34 (1/1.34).
  const std::vector<double> spread_by_sd = {0.0, 0.0, 1.0, 1.0};
  EXPECT_NEAR(Kde(spread_by_sd).bandwidth(),
              0.9 * std::sqrt(1.0 / 3.0) * std::pow(4.0, -0.2), 1e-12);
  // A positive bandwidth is used as given; a non-positive one selects the
  // rule of thumb.
  EXPECT_EQ(Kde(spread_by_iqr, 0.3).bandwidth(), 0.3);
  EXPECT_EQ(Kde(spread_by_iqr, -1.0).bandwidth(),
            Kde(spread_by_iqr).bandwidth());
  EXPECT_THROW(Kde(std::vector<double>{}), std::invalid_argument);
}

TEST(Kde, EvaluateGridMatchesPointwiseDensity) {
  Rng rng(23);
  std::vector<double> xs(300);
  for (auto& x : xs) x = rngdist::normal(rng, 1.0, 0.2);
  const Kde kde(xs);
  const auto grid = Kde::make_grid(0.0, 2.0, 41);
  const auto dens = kde.evaluate_grid(0.0, 2.0, 41);
  ASSERT_EQ(dens.size(), grid.size());
  EXPECT_EQ(grid.front(), 0.0);
  EXPECT_NEAR(grid.back(), 2.0, 1e-15);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(dens[i], kde(grid[i])) << "grid point " << i;
  }
  EXPECT_THROW(kde.evaluate_grid(0.0, 2.0, 1), std::invalid_argument);
  EXPECT_THROW(kde.evaluate_grid(2.0, 2.0, 5), std::invalid_argument);
}

TEST(Bootstrap, ResampleDrawsWithReplacementFromTheSample) {
  std::vector<double> xs(100);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<double>(i);
  Rng r1(31);
  Rng r2(31);
  const auto a = resample(xs, r1);
  EXPECT_EQ(a, resample(xs, r2));
  ASSERT_EQ(a.size(), xs.size());
  std::vector<int> seen(xs.size(), 0);
  for (const double x : a) {
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 100.0);
    ASSERT_EQ(x, std::floor(x));
    ++seen[static_cast<std::size_t>(x)];
  }
  // With replacement: some element repeats (without replacement the
  // resample would be a permutation).
  EXPECT_GT(*std::max_element(seen.begin(), seen.end()), 1);
  EXPECT_THROW(resample(std::vector<double>{}, r1), std::invalid_argument);
}

TEST(Bootstrap, CiCoversTrueMean) {
  Rng rng(13);
  std::vector<double> xs(500);
  for (auto& x : xs) x = rngdist::normal(rng, 10.0, 2.0);
  const auto ci = bootstrap_ci(
      xs, [](std::span<const double> s) { return mean(s); }, 500, 0.05, rng);
  EXPECT_LT(ci.lo, 10.0 + 0.3);
  EXPECT_GT(ci.hi, 10.0 - 0.3);
  EXPECT_LT(ci.lo, ci.hi);
  EXPECT_NEAR(ci.point, 10.0, 0.3);
}

TEST(Bootstrap, DeterministicAndWorkerCountIndependent) {
  Rng rng(99);
  std::vector<double> xs(300);
  for (auto& x : xs) x = rngdist::normal(rng, 5.0, 1.0);

  // Replicates are seeded per index from one rng draw, so two runs from the
  // same rng state produce bit-identical CIs no matter how the pool
  // schedules them.
  Rng r1(7);
  Rng r2(7);
  const auto a = bootstrap_ci(
      xs, [](std::span<const double> s) { return mean(s); }, 200, 0.05, r1);
  const auto b = bootstrap_ci(
      xs, [](std::span<const double> s) { return mean(s); }, 200, 0.05, r2);
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(a.hi, b.hi);
  EXPECT_EQ(a.point, b.point);
}

TEST(Summary, ViolinSummaryOrdering) {
  const std::vector<double> xs = {0.3, 0.1, 0.5, 0.2, 0.4};
  const auto s = ViolinSummary::from(xs);
  EXPECT_DOUBLE_EQ(s.min, 0.1);
  EXPECT_DOUBLE_EQ(s.max, 0.5);
  EXPECT_DOUBLE_EQ(s.median, 0.3);
  EXPECT_LE(s.q1, s.median);
  EXPECT_LE(s.median, s.q3);
  EXPECT_EQ(s.count, 5u);
  EXPECT_NE(s.to_string().find("mean="), std::string::npos);
}

TEST(Summary, SparklinePeaksWhereMassIs) {
  std::vector<double> xs(1000, 0.9);  // all mass near the left
  const auto line = density_sparkline(xs, 0.0, 1.0, 10);
  EXPECT_EQ(line.size(), 10u);
  EXPECT_EQ(line[9], '@');  // 0.9 lands in the last bin
  EXPECT_EQ(line[0], ' ');
}

TEST(WelfordSimdTest, Avx2MatchesScalarBitForBit) {
  Rng rng(66);
  for (const std::size_t n : {0ul, 1ul, 3ul, 4ul, 7ul, 128ul, 1001ul}) {
    std::vector<double> sample(n);
    for (auto& v : sample) v = rng.uniform(-3.0, 3.0) + 1.5;
    const auto a = stats::accumulate_moments_scalar(sample).moments();
    const auto b = stats::accumulate_moments_avx2(sample).moments();
    EXPECT_EQ(a.mean, b.mean) << "n=" << n;
    EXPECT_EQ(a.stddev, b.stddev) << "n=" << n;
    EXPECT_EQ(a.skewness, b.skewness) << "n=" << n;
    EXPECT_EQ(a.kurtosis, b.kurtosis) << "n=" << n;
  }
}

TEST(WelfordSimdTest, LaneAccumulatorAgreesWithSerialWelford) {
  Rng rng(77);
  std::vector<double> sample(40000);
  for (auto& v : sample) v = rng.uniform(-2.0, 2.0) + 0.5;
  stats::MomentAccumulator serial;
  for (const double v : sample) serial.add(v);
  const auto s = serial.moments();
  const auto l = stats::accumulate_moments(sample).moments();
  EXPECT_EQ(l.count, s.count);
  EXPECT_NEAR(l.mean, s.mean, 1e-12 * std::abs(s.mean));
  EXPECT_NEAR(l.stddev, s.stddev, 1e-9 * s.stddev);
  EXPECT_NEAR(l.skewness, s.skewness, 1e-7);
  EXPECT_NEAR(l.kurtosis, s.kurtosis, 1e-7);
}

TEST(WelfordSimdTest, DispatchedPathMatchesScalarBitForBit) {
  // Whichever variant dispatch picks, the result is the scalar one.
  Rng rng(88);
  for (const std::size_t n : {0ul, 2ul, 5ul, 64ul, 999ul}) {
    std::vector<double> sample(n);
    for (auto& v : sample) v = rng.uniform(-1.0, 4.0);
    const auto a = stats::accumulate_moments_scalar(sample).moments();
    const auto d = stats::accumulate_moments(sample).moments();
    EXPECT_EQ(a.count, d.count) << "n=" << n;
    EXPECT_EQ(a.mean, d.mean) << "n=" << n;
    EXPECT_EQ(a.stddev, d.stddev) << "n=" << n;
    EXPECT_EQ(a.skewness, d.skewness) << "n=" << n;
    EXPECT_EQ(a.kurtosis, d.kurtosis) << "n=" << n;
  }
}

TEST(WelfordSimdTest, NoAvx2EnvironmentDisablesTheAvx2Path) {
  ::setenv("VARPRED_NO_AVX2", "1", 1);
  EXPECT_FALSE(stats::welford_avx2_active());
  ::setenv("VARPRED_NO_AVX2", "0", 1);
  const bool zero = stats::welford_avx2_active();
  ::unsetenv("VARPRED_NO_AVX2");
  // "0" means unset: the AVX2 path runs exactly when the CPU supports it.
  EXPECT_EQ(zero, stats::welford_avx2_active());
}

}  // namespace
}  // namespace varpred::stats
