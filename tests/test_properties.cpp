// Property-based suites (parameterized gtest): invariants that must hold
// across randomized inputs and parameter grids, complementing the
// example-based tests in the per-module suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "core/profile.hpp"
#include "measure/corpus.hpp"
#include "pearson/pearson.hpp"
#include "rngdist/mixture.hpp"
#include "rngdist/samplers.hpp"
#include "stats/ecdf.hpp"
#include "stats/histogram.hpp"
#include "stats/ks.hpp"
#include "stats/moments.hpp"

namespace varpred {
namespace {

// ---------------------------------------------------------------------------
// KS statistic: metric-like properties over random sample triples.
class KsProperties : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<double> random_sample(Rng& rng, std::size_t n) {
  // A random mixture shape per call: location/scale/skew vary.
  const double mu = rng.uniform(-2.0, 2.0);
  const double sigma = rng.uniform(0.1, 2.0);
  const double shape = rng.uniform(0.5, 6.0);
  std::vector<double> out(n);
  for (auto& v : out) {
    v = rng.uniform() < 0.5 ? rngdist::normal(rng, mu, sigma)
                            : mu + rngdist::gamma(rng, shape, sigma);
  }
  return out;
}

TEST_P(KsProperties, BoundedSymmetricAndTriangle) {
  Rng rng(GetParam());
  const auto a = random_sample(rng, 400);
  const auto b = random_sample(rng, 300);
  const auto c = random_sample(rng, 500);
  const double ab = stats::ks_statistic(a, b);
  const double ba = stats::ks_statistic(b, a);
  const double ac = stats::ks_statistic(a, c);
  const double cb = stats::ks_statistic(c, b);
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0);
  EXPECT_DOUBLE_EQ(ab, ba);                 // symmetry
  EXPECT_LE(ab, ac + cb + 1e-12);           // triangle (sup-norm on ECDFs)
  EXPECT_DOUBLE_EQ(stats::ks_statistic(a, a), 0.0);  // identity
}

TEST_P(KsProperties, InvariantUnderMonotoneTransform) {
  // KS depends only on ranks: applying exp() to both samples preserves it.
  Rng rng(GetParam() ^ 0x5555);
  const auto a = random_sample(rng, 300);
  const auto b = random_sample(rng, 300);
  auto ea = a;
  auto eb = b;
  for (auto& v : ea) v = std::exp(0.3 * v);
  for (auto& v : eb) v = std::exp(0.3 * v);
  EXPECT_NEAR(stats::ks_statistic(a, b), stats::ks_statistic(ea, eb), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomTriples, KsProperties,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Moment accumulator: batch == merged partitions, for arbitrary split points.
class MomentMerge : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MomentMerge, ArbitraryPartitionEqualsBatch) {
  Rng rng(17);
  std::vector<double> xs(997);
  for (auto& x : xs) x = rngdist::lognormal(rng, 0.0, 0.7);

  stats::MomentAccumulator whole;
  for (const double x : xs) whole.add(x);

  const std::size_t cut = GetParam() % xs.size();
  stats::MomentAccumulator left;
  stats::MomentAccumulator right;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i < cut ? left : right).add(xs[i]);
  }
  left.merge(right);
  EXPECT_NEAR(whole.moments().kurtosis, left.moments().kurtosis, 1e-8);
  EXPECT_NEAR(whole.moments().skewness, left.moments().skewness, 1e-9);
  EXPECT_NEAR(whole.moments().stddev, left.moments().stddev, 1e-10);
  EXPECT_EQ(left.count(), whole.count());
}

INSTANTIATE_TEST_SUITE_P(Cuts, MomentMerge,
                         ::testing::Values(0, 1, 7, 100, 499, 996, 997));

// Adversarial inputs for batch-add vs arbitrary-split merge: huge common
// offsets (catastrophic cancellation in naive formulas), near-constant
// samples (variance at the edge of representability), and magnitudes mixed
// across twelve orders. The Welford/Chan update formulas must keep the two
// evaluation orders in tight agreement on all of them.
struct AdversarialCase {
  const char* name;
  std::vector<double> (*make)(std::size_t n);
};

// gtest would print the two pointers' bytes, which change between runs.
void PrintTo(const AdversarialCase& c, std::ostream* os) { *os << c.name; }

std::vector<double> huge_offset_sample(std::size_t n) {
  Rng rng(41);
  std::vector<double> xs(n);
  for (auto& x : xs) x = 1e9 + rngdist::normal(rng, 0.0, 0.5);
  return xs;
}

std::vector<double> near_constant_sample(std::size_t n) {
  Rng rng(43);
  std::vector<double> xs(n);
  for (auto& x : xs) x = 2.5 + 1e-9 * rngdist::normal(rng, 0.0, 1.0);
  return xs;
}

std::vector<double> mixed_magnitude_sample(std::size_t n) {
  Rng rng(47);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double mag = std::pow(10.0, rng.uniform(-6.0, 6.0));
    xs[i] = (rng.uniform() < 0.5 ? -1.0 : 1.0) * mag;
  }
  return xs;
}

class MomentMergeAdversarial
    : public ::testing::TestWithParam<AdversarialCase> {};

TEST_P(MomentMergeAdversarial, SplitMergeAgreesWithBatch) {
  const auto xs = GetParam().make(1501);

  stats::MomentAccumulator whole;
  for (const double x : xs) whole.add(x);
  const auto ref = whole.moments();

  for (const std::size_t parts : {2u, 3u, 7u}) {
    std::vector<stats::MomentAccumulator> accs(parts);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      accs[i * parts / xs.size()].add(xs[i]);
    }
    stats::MomentAccumulator merged;
    for (const auto& a : accs) merged.merge(a);
    const auto got = merged.moments();

    EXPECT_EQ(got.count, ref.count);
    EXPECT_NEAR(got.mean, ref.mean,
                1e-9 * std::max(1.0, std::fabs(ref.mean)));
    EXPECT_NEAR(got.stddev, ref.stddev,
                1e-6 * std::max(1e-12, ref.stddev));
    EXPECT_NEAR(got.skewness, ref.skewness,
                1e-5 * std::max(1.0, std::fabs(ref.skewness)));
    EXPECT_NEAR(got.kurtosis, ref.kurtosis,
                1e-5 * std::max(1.0, std::fabs(ref.kurtosis)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MomentMergeAdversarial,
    ::testing::Values(AdversarialCase{"huge_offset", huge_offset_sample},
                      AdversarialCase{"near_constant", near_constant_sample},
                      AdversarialCase{"mixed_magnitude",
                                      mixed_magnitude_sample}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(MomentsParallel, MatchesSerialOnLargeSample) {
  Rng rng(53);
  std::vector<double> xs(200000);
  for (auto& x : xs) x = rngdist::lognormal(rng, 0.0, 0.5);

  stats::MomentAccumulator acc;
  for (const double x : xs) acc.add(x);
  const auto serial = acc.moments();
  // Goes through the chunked parallel_reduce path (n >= 2^15).
  const auto parallel = stats::compute_moments(xs);

  EXPECT_EQ(parallel.count, serial.count);
  EXPECT_NEAR(parallel.mean, serial.mean, 1e-12 * std::fabs(serial.mean));
  EXPECT_NEAR(parallel.stddev, serial.stddev, 1e-9 * serial.stddev);
  EXPECT_NEAR(parallel.skewness, serial.skewness, 1e-7);
  EXPECT_NEAR(parallel.kurtosis, serial.kurtosis, 1e-7);

  // Chunk boundaries depend only on n, so two parallel evaluations are
  // bitwise identical even though worker interleaving differs.
  const auto again = stats::compute_moments_parallel(xs);
  EXPECT_EQ(parallel.mean, again.mean);
  EXPECT_EQ(parallel.stddev, again.stddev);
  EXPECT_EQ(parallel.skewness, again.skewness);
  EXPECT_EQ(parallel.kurtosis, again.kurtosis);
}

// ---------------------------------------------------------------------------
// Histogram: mass conservation and round-trip fidelity across shapes.
class HistogramShapes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramShapes, MassConservedAndRoundTripBounded) {
  Rng rng(GetParam());
  const auto xs = random_sample(rng, 3000);
  const double lo = stats::quantile(xs, 0.001) - 0.1;
  const double hi = stats::quantile(xs, 0.999) + 0.1;
  const auto hist = stats::Histogram::fit(xs, lo, hi, 48);
  EXPECT_EQ(hist.total(), xs.size());
  const auto probs = hist.probabilities();
  double mass = 0.0;
  for (const double p : probs) mass += p;
  EXPECT_NEAR(mass, 1.0, 1e-9);

  Rng rng2(GetParam() + 1);
  const auto back =
      stats::Histogram::sample_many_from_probs(probs, lo, hi, 3000, rng2);
  // Bin width bounds the achievable KS; 48 bins over ~the sample range
  // keeps the round trip comfortably under 0.08 + clamp loss.
  EXPECT_LT(stats::ks_statistic(xs, back), 0.1);
}

INSTANTIATE_TEST_SUITE_P(Shapes, HistogramShapes,
                         ::testing::Range<std::uint64_t>(100, 110));

// ---------------------------------------------------------------------------
// Sample quantiles.
class SampleQuantile : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SampleQuantile, IsMonotoneAndSpansTheSample) {
  Rng rng(GetParam());
  const auto xs = random_sample(rng, 500);
  // quantile(p) is within the sample range and monotone in p.
  double prev_q = -1e300;
  for (double p = 0.0; p <= 1.0; p += 0.1) {
    const double q = stats::quantile(xs, p);
    EXPECT_GE(q, prev_q);
    prev_q = q;
  }
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.0),
                   *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 1.0),
                   *std::max_element(xs.begin(), xs.end()));
}

INSTANTIATE_TEST_SUITE_P(Samples, SampleQuantile,
                         ::testing::Range<std::uint64_t>(31, 39));

// ---------------------------------------------------------------------------
// Pearson system: moment fidelity across a grid of the (skew, kurt) plane.
struct PlanePoint {
  double skew;
  double kurt;
};

void PrintTo(const PlanePoint& p, std::ostream* os) {
  *os << "skew=" << p.skew << ",kurt=" << p.kurt;
}

class PearsonPlane : public ::testing::TestWithParam<PlanePoint> {};

TEST_P(PearsonPlane, SampledMomentsTrackTargets) {
  const auto [skew, kurt] = GetParam();
  if (!pearson::moments_feasible(skew, kurt)) GTEST_SKIP();
  stats::Moments target;
  target.mean = 1.0;
  target.stddev = 0.05;
  target.skewness = skew;
  target.kurtosis = kurt;
  const pearson::PearsonSampler sampler(target);
  Rng rng(777);
  stats::MomentAccumulator acc;
  for (int i = 0; i < 150000; ++i) acc.add(sampler.sample(rng));
  const auto m = acc.moments();
  EXPECT_NEAR(m.mean, 1.0, 0.005);
  EXPECT_NEAR(m.stddev, 0.05, 0.005);
  EXPECT_NEAR(m.skewness, skew, 0.2 + 0.1 * std::fabs(skew));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PearsonPlane,
    ::testing::Values(PlanePoint{-1.5, 6.0}, PlanePoint{-0.8, 2.8},
                      PlanePoint{-0.3, 2.2}, PlanePoint{0.0, 1.9},
                      PlanePoint{0.0, 3.0}, PlanePoint{0.0, 6.0},
                      PlanePoint{0.3, 2.6}, PlanePoint{0.6, 3.3},
                      PlanePoint{1.0, 4.0}, PlanePoint{1.0, 4.5},
                      PlanePoint{1.5, 5.5}, PlanePoint{2.0, 9.5},
                      PlanePoint{2.5, 14.0}, PlanePoint{3.0, 20.0}));

// ---------------------------------------------------------------------------
// Mixture: exact mean/variance match sampled values across random configs.
class MixtureProps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MixtureProps, TheoryMatchesSampling) {
  Rng rng(GetParam());
  std::vector<rngdist::Component> comps;
  const std::size_t k = 1 + rng.uniform_index(4);
  for (std::size_t i = 0; i < k; ++i) {
    rngdist::Component c;
    const double pick = rng.uniform();
    if (pick < 0.4) {
      c.family = rngdist::Family::kNormal;
      c.p1 = rng.uniform(0.5, 2.0);
      c.p2 = rng.uniform(0.01, 0.3);
    } else if (pick < 0.7) {
      c.family = rngdist::Family::kGamma;
      c.p1 = rng.uniform(1.0, 6.0);
      c.p2 = rng.uniform(0.05, 0.5);
      c.shift = rng.uniform(0.0, 1.0);
    } else {
      c.family = rngdist::Family::kUniform;
      c.p1 = rng.uniform(0.0, 1.0);
      c.p2 = c.p1 + rng.uniform(0.1, 1.0);
    }
    c.weight = rng.uniform(0.2, 2.0);
    comps.push_back(c);
  }
  const rngdist::Mixture mix(comps);
  stats::MomentAccumulator acc;
  Rng srng(GetParam() ^ 0xABCD);
  for (int i = 0; i < 150000; ++i) acc.add(mix.sample(srng));
  const auto m = acc.moments();
  EXPECT_NEAR(m.mean, mix.mean(), 0.01 * std::max(1.0, std::fabs(mix.mean())));
  EXPECT_NEAR(m.stddev, std::sqrt(mix.variance()),
              0.03 * std::sqrt(mix.variance()) + 0.003);
}

INSTANTIATE_TEST_SUITE_P(RandomMixtures, MixtureProps,
                         ::testing::Range<std::uint64_t>(200, 212));

// ---------------------------------------------------------------------------
// Profiles: per-second normalization makes features invariant to uniformly
// scaling runtimes and counters together (a "slower clock" transformation).
class ProfileInvariance : public ::testing::TestWithParam<double> {};

TEST_P(ProfileInvariance, ScaleInvariantUpToDuration) {
  const double scale = GetParam();
  const auto& system = measure::SystemModel::intel();
  auto runs = measure::measure_benchmark(4, system, 30, 9);
  std::vector<std::size_t> idx = {0, 3, 7, 12, 19};
  const auto base = core::build_profile(system, runs, idx);

  // Scale all runtimes and counters uniformly.
  for (auto& t : runs.runtimes) t *= scale;
  for (std::size_t r = 0; r < runs.counters.rows(); ++r) {
    for (std::size_t c = 0; c < runs.counters.cols(); ++c) {
      runs.counters(r, c) *= scale;
    }
  }
  const auto scaled = core::build_profile(system, runs, idx);
  ASSERT_EQ(base.size(), scaled.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_NEAR(scaled[i], base[i], 1e-9 * (1.0 + std::fabs(base[i])))
        << "feature " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, ProfileInvariance,
                         ::testing::Values(0.5, 2.0, 10.0));

// ---------------------------------------------------------------------------
// Relative time: scale-invariance of the prediction target.
class RelativeTime : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RelativeTime, UnitMeanAndScaleFree) {
  Rng rng(GetParam());
  std::vector<double> xs(200);
  for (auto& x : xs) x = rngdist::lognormal(rng, 2.0, 0.3);
  const auto rel = stats::to_relative(xs);
  EXPECT_NEAR(stats::mean(rel), 1.0, 1e-12);
  auto scaled = xs;
  for (auto& x : scaled) x *= 37.5;
  const auto rel2 = stats::to_relative(scaled);
  for (std::size_t i = 0; i < rel.size(); ++i) {
    EXPECT_NEAR(rel[i], rel2[i], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelativeTime,
                         ::testing::Range<std::uint64_t>(50, 56));

}  // namespace
}  // namespace varpred
