// Tests for the Pearson system: classification against the classical type
// regions and a property-based sweep verifying that sampled moments match
// the requested (mean, sd, skewness, kurtosis) across all seven families.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "pearson/pearson.hpp"
#include "stats/moments.hpp"

namespace varpred::pearson {
namespace {

stats::Moments make_moments(double mean, double sd, double skew, double kurt) {
  stats::Moments m;
  m.mean = mean;
  m.stddev = sd;
  m.skewness = skew;
  m.kurtosis = kurt;
  return m;
}

TEST(Feasibility, BoundaryRule) {
  EXPECT_TRUE(moments_feasible(0.0, 3.0));
  EXPECT_TRUE(moments_feasible(1.0, 2.5));
  EXPECT_FALSE(moments_feasible(1.0, 2.0));   // boundary k = g^2 + 1
  EXPECT_FALSE(moments_feasible(0.0, 0.5));
  EXPECT_FALSE(moments_feasible(std::nan(""), 3.0));
}

TEST(Sanitize, ProjectsIntoFeasibleRegion) {
  auto m = sanitize_moments(make_moments(1.0, 0.1, 2.0, 1.0));
  EXPECT_TRUE(moments_feasible(m.skewness, m.kurtosis));
  m = sanitize_moments(make_moments(1.0, -0.5, 0.0, 3.0));
  EXPECT_GE(m.stddev, 0.0);
  m = sanitize_moments(
      make_moments(std::nan(""), std::nan(""), std::nan(""), std::nan("")));
  EXPECT_TRUE(std::isfinite(m.mean));
  EXPECT_TRUE(moments_feasible(m.skewness, m.kurtosis));
  // Extreme skew is clamped but stays feasible.
  m = sanitize_moments(make_moments(1.0, 0.1, 50.0, 4.0));
  EXPECT_TRUE(moments_feasible(m.skewness, m.kurtosis));
}

TEST(Classify, CanonicalRegions) {
  EXPECT_EQ(classify(0.0, 3.0), PearsonType::kNormal);
  EXPECT_EQ(classify(0.0, 1.8), PearsonType::kTypeII);   // uniform-like
  EXPECT_EQ(classify(0.0, 4.5), PearsonType::kTypeVII);  // heavy symmetric
  // Gamma(k = 4): skew = 1, kurt = 3 + 6/4 = 4.5 exactly on the III line.
  EXPECT_EQ(classify(1.0, 4.5), PearsonType::kTypeIII);
  // Below the gamma line with skew: beta region (type I).
  EXPECT_EQ(classify(0.5, 2.5), PearsonType::kTypeI);
  // Above the gamma line: type IV region.
  EXPECT_EQ(classify(0.5, 4.0), PearsonType::kTypeIV);
  // Far above: type VI region (e.g. inverse-gamma-ish tails).
  EXPECT_EQ(classify(2.0, 12.0), PearsonType::kTypeVI);
  EXPECT_THROW(classify(1.0, 1.5), std::invalid_argument);
}

TEST(Classify, TypeVOnTheBoundary) {
  // The type V surface satisfies c1^2 = 4 c0 c2 (kappa = 1). In the Pearson
  // diagram the VI region sits between the III line (kappa = +inf) and the V
  // line, with IV above: kappa decreases through 1 as kurtosis grows.
  // Bisect for the crossing between a VI point and an IV point.
  const double skew = 1.0;
  double lo = 4.6;   // just above the III line: type VI (kappa >> 1)
  double hi = 8.0;   // well above the V line: type IV (kappa < 1)
  auto disc = [&](double kurt) {
    const double b1 = skew * skew;
    const double c0 = 4.0 * kurt - 3.0 * b1;
    const double c1 = skew * (kurt + 3.0);
    const double c2 = 2.0 * kurt - 3.0 * b1 - 6.0;
    return c1 * c1 / (4.0 * c0 * c2) - 1.0;
  };
  ASSERT_GT(disc(lo), 0.0);
  ASSERT_LT(disc(hi), 0.0);
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (disc(mid) > 0.0 ? lo : hi) = mid;
  }
  EXPECT_EQ(classify(skew, 0.5 * (lo + hi)), PearsonType::kTypeV);
}

TEST(Sampler, DegenerateSigmaIsPointMass) {
  const PearsonSampler s(make_moments(1.5, 0.0, 0.0, 3.0));
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(s.sample(rng), 1.5);
}

TEST(Sampler, RejectsInfeasible) {
  EXPECT_THROW(PearsonSampler(make_moments(1.0, 0.1, 2.0, 2.0)),
               std::invalid_argument);
  EXPECT_THROW(PearsonSampler(make_moments(1.0, -1.0, 0.0, 3.0)),
               std::invalid_argument);
}

struct MomentTarget {
  double mean;
  double sd;
  double skew;
  double kurt;
  PearsonType expected_type;
};

class PearsonSweep : public ::testing::TestWithParam<MomentTarget> {};

TEST_P(PearsonSweep, SampledMomentsMatchTarget) {
  const auto p = GetParam();
  const auto target = make_moments(p.mean, p.sd, p.skew, p.kurt);
  const PearsonSampler sampler(target);
  EXPECT_EQ(sampler.type(), p.expected_type) << to_string(sampler.type());

  Rng rng(2024);
  stats::MomentAccumulator acc;
  constexpr std::size_t kN = 400000;
  for (std::size_t i = 0; i < kN; ++i) acc.add(sampler.sample(rng));
  const auto m = acc.moments();

  EXPECT_NEAR(m.mean, p.mean, 0.02 * std::max(1.0, std::fabs(p.mean)));
  EXPECT_NEAR(m.stddev, p.sd, 0.03 * p.sd + 0.002);
  EXPECT_NEAR(m.skewness, p.skew, 0.12 + 0.05 * std::fabs(p.skew));
  // The 4th moment converges slowly; accept a proportional band.
  EXPECT_NEAR(m.kurtosis, p.kurt, 0.05 * p.kurt + 0.25);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, PearsonSweep,
    ::testing::Values(
        // Normal
        MomentTarget{1.0, 0.05, 0.0, 3.0, PearsonType::kNormal},
        // Type II: symmetric platykurtic (uniform has kurt 1.8)
        MomentTarget{2.0, 0.5, 0.0, 1.8, PearsonType::kTypeII},
        MomentTarget{0.0, 1.0, 0.0, 2.5, PearsonType::kTypeII},
        // Type VII: symmetric leptokurtic
        MomentTarget{1.0, 0.1, 0.0, 5.0, PearsonType::kTypeVII},
        MomentTarget{-3.0, 2.0, 0.0, 3.8, PearsonType::kTypeVII},
        // Type III: gamma line kurt = 3 + 1.5 skew^2
        MomentTarget{1.0, 0.2, 1.0, 4.5, PearsonType::kTypeIII},
        MomentTarget{1.0, 0.2, -1.0, 4.5, PearsonType::kTypeIII},
        MomentTarget{5.0, 1.0, 0.5, 3.375, PearsonType::kTypeIII},
        // Type I: beta region
        MomentTarget{1.0, 0.1, 0.5, 2.5, PearsonType::kTypeI},
        MomentTarget{1.0, 0.1, -0.5, 2.5, PearsonType::kTypeI},
        MomentTarget{0.0, 1.0, 0.8, 3.2, PearsonType::kTypeI},
        MomentTarget{2.0, 0.3, 1.2, 4.0, PearsonType::kTypeI},
        // Type IV
        MomentTarget{1.0, 0.1, 0.5, 4.0, PearsonType::kTypeIV},
        MomentTarget{1.0, 0.1, -0.5, 4.0, PearsonType::kTypeIV},
        MomentTarget{0.0, 1.0, 1.0, 6.0, PearsonType::kTypeIV},
        MomentTarget{10.0, 2.0, 0.2, 3.5, PearsonType::kTypeIV},
        // Type VI
        MomentTarget{1.0, 0.1, 2.0, 12.0, PearsonType::kTypeVI},
        MomentTarget{1.0, 0.1, -2.0, 12.0, PearsonType::kTypeVI},
        // Between the III line (kurt = 6.375 for skew 1.5) and the V line.
        MomentTarget{0.0, 1.0, 1.5, 6.6, PearsonType::kTypeVI}));

TEST(Sampler, PearsrndConvenienceMatches) {
  Rng rng(7);
  const auto xs = pearsrnd(make_moments(1.0, 0.05, 0.8, 3.6), 50000, rng);
  const auto m = stats::compute_moments(xs);
  EXPECT_NEAR(m.mean, 1.0, 0.01);
  EXPECT_NEAR(m.stddev, 0.05, 0.01);
  EXPECT_NEAR(m.skewness, 0.8, 0.15);
}

TEST(Sampler, DeterministicGivenSeed) {
  const auto target = make_moments(1.0, 0.1, 0.5, 4.0);
  Rng r1(99);
  Rng r2(99);
  const auto a = pearsrnd(target, 100, r1);
  const auto b = pearsrnd(target, 100, r2);
  EXPECT_EQ(a, b);
}

TEST(EnumNames, OutOfRangePearsonTypeThrows) {
  EXPECT_THROW(to_string(static_cast<PearsonType>(99)), std::invalid_argument);
}

}  // namespace
}  // namespace varpred::pearson
