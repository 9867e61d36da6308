// Tests for the distribution samplers: sampled moments must match the
// closed-form moments of each family. Property-style parameterized sweeps
// cover the parameter ranges the simulator and the Pearson system use.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "rngdist/mixture.hpp"
#include "rngdist/samplers.hpp"
#include "stats/moments.hpp"

namespace varpred::rngdist {
namespace {

constexpr std::size_t kN = 200000;

stats::Moments draw_moments(const std::function<double(Rng&)>& sampler,
                            std::uint64_t seed = 77) {
  Rng rng(seed);
  stats::MomentAccumulator acc;
  for (std::size_t i = 0; i < kN; ++i) acc.add(sampler(rng));
  return acc.moments();
}

TEST(Samplers, NormalMomentsMatch) {
  const auto m = draw_moments([](Rng& r) { return normal(r, 2.0, 3.0); });
  EXPECT_NEAR(m.mean, 2.0, 0.03);
  EXPECT_NEAR(m.stddev, 3.0, 0.03);
  EXPECT_NEAR(m.skewness, 0.0, 0.05);
  EXPECT_NEAR(m.kurtosis, 3.0, 0.1);
}

// normal_fill is a second implementation of normal()'s stream: for every
// length (0, the simulator's 67 intel and 74 amd noisy metrics, around the
// 128-value chunk edge, many chunks) it must give the same values and
// leave the engine in the same state as successive normal() calls.
TEST(Samplers, NormalFillMatchesSuccessiveNormals) {
  for (const std::size_t n :
       {0u, 1u, 2u, 67u, 74u, 127u, 128u, 129u, 1000u}) {
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
      Rng sequential(seed);
      Rng block(seed);
      std::vector<double> expected(n);
      for (auto& z : expected) z = normal(sequential);
      std::vector<double> got(n, -1.0);
      normal_fill(block, got);
      ASSERT_EQ(got, expected) << "n=" << n << " seed=" << seed;
      ASSERT_EQ(block.next_u64(), sequential.next_u64())
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(Samplers, ExponentialMomentsMatch) {
  const double lambda = 0.5;
  const auto m =
      draw_moments([&](Rng& r) { return exponential(r, lambda); });
  EXPECT_NEAR(m.mean, 2.0, 0.03);
  EXPECT_NEAR(m.stddev, 2.0, 0.05);
  EXPECT_NEAR(m.skewness, 2.0, 0.1);
}

struct GammaCase {
  double shape;
  double scale;
};

void PrintTo(const GammaCase& c, std::ostream* os) {
  *os << "shape=" << c.shape << ",scale=" << c.scale;
}

class GammaSweep : public ::testing::TestWithParam<GammaCase> {};

TEST_P(GammaSweep, MomentsMatchTheory) {
  const auto [k, theta] = GetParam();
  const auto m = draw_moments([&](Rng& r) { return gamma(r, k, theta); });
  EXPECT_NEAR(m.mean, k * theta, 0.05 * k * theta + 0.01);
  EXPECT_NEAR(m.stddev, std::sqrt(k) * theta,
              0.05 * std::sqrt(k) * theta + 0.01);
  EXPECT_NEAR(m.skewness, 2.0 / std::sqrt(k), 0.15);
}

INSTANTIATE_TEST_SUITE_P(ShapeScaleGrid, GammaSweep,
                         ::testing::Values(GammaCase{0.3, 1.0},
                                           GammaCase{0.7, 2.0},
                                           GammaCase{1.0, 0.5},
                                           GammaCase{2.5, 1.5},
                                           GammaCase{10.0, 0.2},
                                           GammaCase{50.0, 3.0}));

struct BetaCase {
  double a;
  double b;
};

void PrintTo(const BetaCase& c, std::ostream* os) {
  *os << "a=" << c.a << ",b=" << c.b;
}

class BetaSweep : public ::testing::TestWithParam<BetaCase> {};

TEST_P(BetaSweep, MomentsMatchTheory) {
  const auto [a, b] = GetParam();
  const auto m = draw_moments([&](Rng& r) { return beta(r, a, b); });
  const double mean = a / (a + b);
  const double var = a * b / ((a + b) * (a + b) * (a + b + 1.0));
  EXPECT_NEAR(m.mean, mean, 0.01);
  EXPECT_NEAR(m.stddev, std::sqrt(var), 0.01);
}

INSTANTIATE_TEST_SUITE_P(ParamGrid, BetaSweep,
                         ::testing::Values(BetaCase{0.5, 0.5},
                                           BetaCase{1.0, 1.0},
                                           BetaCase{2.0, 5.0},
                                           BetaCase{5.0, 2.0},
                                           BetaCase{8.0, 8.0}));

TEST(Samplers, StudentTMomentsMatch) {
  const double nu = 8.0;
  const auto m = draw_moments([&](Rng& r) { return student_t(r, nu); });
  EXPECT_NEAR(m.mean, 0.0, 0.03);
  EXPECT_NEAR(m.stddev, std::sqrt(nu / (nu - 2.0)), 0.05);
  EXPECT_NEAR(m.skewness, 0.0, 0.2);
}

TEST(Samplers, ChiSquaredIsGamma) {
  const auto m = draw_moments([](Rng& r) { return chi_squared(r, 5.0); });
  EXPECT_NEAR(m.mean, 5.0, 0.1);
  EXPECT_NEAR(m.stddev, std::sqrt(10.0), 0.1);
}

TEST(Samplers, LognormalMomentsMatch) {
  const double mu = 0.1;
  const double s = 0.4;
  const auto m = draw_moments([&](Rng& r) { return lognormal(r, mu, s); });
  EXPECT_NEAR(m.mean, std::exp(mu + 0.5 * s * s), 0.02);
}

TEST(Samplers, InvalidParametersThrow) {
  Rng rng(1);
  EXPECT_THROW(gamma(rng, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(gamma(rng, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(beta(rng, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(exponential(rng, 0.0), std::invalid_argument);
  EXPECT_THROW(student_t(rng, -2.0), std::invalid_argument);
}

TEST(Mixture, ComponentMeansAndVariances) {
  Component normal_c{Family::kNormal, 1.0, 2.0, 0.5, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(normal_c.mean(), 2.0);
  EXPECT_DOUBLE_EQ(normal_c.variance(), 0.25);

  Component gamma_c{Family::kGamma, 1.0, 4.0, 0.5, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(gamma_c.mean(), 1.0 + 2.0 * 4.0 * 0.5);
  EXPECT_DOUBLE_EQ(gamma_c.variance(), 4.0 * 4.0 * 0.25);

  Component unif_c{Family::kUniform, 1.0, 0.0, 6.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(unif_c.mean(), 3.0);
  EXPECT_DOUBLE_EQ(unif_c.variance(), 3.0);
}

TEST(Mixture, ExactMeanMatchesSampledMean) {
  Mixture mix({
      Component{Family::kNormal, 0.7, 1.0, 0.05, 0.0, 1.0},
      Component{Family::kNormal, 0.3, 1.3, 0.08, 0.0, 1.0},
  });
  EXPECT_NEAR(mix.mean(), 0.7 * 1.0 + 0.3 * 1.3, 1e-12);
  Rng rng(5);
  stats::MomentAccumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(mix.sample(rng));
  EXPECT_NEAR(acc.moments().mean, mix.mean(), 0.005);
  EXPECT_NEAR(acc.moments().stddev, std::sqrt(mix.variance()), 0.01);
}

TEST(Mixture, ModeIndexMatchesWeights) {
  Mixture mix({
      Component{Family::kNormal, 0.8, 0.0, 1.0, 0.0, 1.0},
      Component{Family::kNormal, 0.2, 10.0, 1.0, 0.0, 1.0},
  });
  Rng rng(11);
  int mode1 = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    std::size_t mode = 99;
    mix.sample(rng, &mode);
    ASSERT_LT(mode, 2u);
    mode1 += (mode == 1);
  }
  EXPECT_NEAR(static_cast<double>(mode1) / kDraws, 0.2, 0.01);
}

TEST(Mixture, BimodalShapeHasTwoClusters) {
  Mixture mix({
      Component{Family::kNormal, 0.6, 1.0, 0.01, 0.0, 1.0},
      Component{Family::kNormal, 0.4, 1.2, 0.01, 0.0, 1.0},
  });
  Rng rng(3);
  const auto xs = mix.sample_many(rng, 20000);
  int near_lo = 0;
  int near_hi = 0;
  for (const double x : xs) {
    near_lo += (std::fabs(x - 1.0) < 0.05);
    near_hi += (std::fabs(x - 1.2) < 0.05);
  }
  EXPECT_GT(near_lo, 10000);
  EXPECT_GT(near_hi, 6000);
  EXPECT_NEAR(near_lo + near_hi, 20000, 50);
}

TEST(Mixture, RejectsInvalidConstruction) {
  EXPECT_THROW(Mixture(std::vector<Component>{}), std::invalid_argument);
  EXPECT_THROW(
      Mixture({Component{Family::kNormal, 0.0, 0.0, 1.0, 0.0, 1.0}}),
      std::invalid_argument);
}

}  // namespace
}  // namespace varpred::rngdist
