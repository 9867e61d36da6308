// Tests for the maximum-entropy moment reconstruction: the solver must
// reproduce known maximum-entropy solutions (uniform, truncated Gaussian)
// and round-trip arbitrary feasible moment sets.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "maxent/maxent.hpp"
#include "special/quadrature.hpp"
#include "stats/ks.hpp"
#include "stats/moments.hpp"

namespace varpred::maxent {
namespace {

stats::Moments make_moments(double mean, double sd, double skew, double kurt) {
  stats::Moments m;
  m.mean = mean;
  m.stddev = sd;
  m.skewness = skew;
  m.kurtosis = kurt;
  return m;
}

TEST(RawMoments, MatchesDirectComputation) {
  // For N(0,1): raw moments 1, 0, 1, 0, 3.
  const auto raw = raw_moments_from_summary(make_moments(0.0, 1.0, 0.0, 3.0));
  ASSERT_EQ(raw.size(), 5u);
  EXPECT_DOUBLE_EQ(raw[0], 1.0);
  EXPECT_DOUBLE_EQ(raw[1], 0.0);
  EXPECT_DOUBLE_EQ(raw[2], 1.0);
  EXPECT_DOUBLE_EQ(raw[3], 0.0);
  EXPECT_DOUBLE_EQ(raw[4], 3.0);
}

TEST(RawMoments, ShiftedScaled) {
  // For mean 2, sd 0.5: mu2 = 0.25 + 4.
  const auto raw = raw_moments_from_summary(make_moments(2.0, 0.5, 0.0, 3.0));
  EXPECT_DOUBLE_EQ(raw[1], 2.0);
  EXPECT_DOUBLE_EQ(raw[2], 4.25);
}

TEST(MaxEnt, UniformFromSingleMoment) {
  // With only mu_0, mu_1 and a symmetric support, maximum entropy is the
  // uniform density.
  const std::vector<double> raw = {1.0, 0.5};
  const MaxEntDensity d(raw, 0.0, 1.0);
  EXPECT_NEAR(d.pdf(0.2), 1.0, 1e-6);
  EXPECT_NEAR(d.pdf(0.8), 1.0, 1e-6);
  EXPECT_DOUBLE_EQ(d.pdf(-0.1), 0.0);
  EXPECT_DOUBLE_EQ(d.pdf(1.1), 0.0);
}

TEST(MaxEnt, RecoversMomentsItWasGiven) {
  // Feasible skewed moment set; reconstructed density must reproduce the
  // moments via quadrature.
  const auto summary = make_moments(1.0, 0.1, 0.6, 3.4);
  const auto raw = raw_moments_from_summary(summary);
  const MaxEntDensity d(raw, 0.4, 1.6);
  for (std::size_t k = 0; k < raw.size(); ++k) {
    const double mk = special::integrate_composite(
        [&](double x) { return std::pow(x, static_cast<double>(k)) * d.pdf(x); },
        0.4, 1.6, 16, 32);
    EXPECT_NEAR(mk, raw[k], 1e-5) << "moment " << k;
  }
}

TEST(MaxEnt, GaussianCaseMatchesTruncatedNormal) {
  // Matching just mean and variance on a wide support yields (nearly) the
  // normal density.
  const auto raw = raw_moments_from_summary(make_moments(0.0, 1.0, 0.0, 3.0));
  const MaxEntDensity d(std::span<const double>(raw.data(), 3), -8.0, 8.0);
  EXPECT_NEAR(d.pdf(0.0), 1.0 / std::sqrt(2.0 * M_PI), 1e-4);
  EXPECT_NEAR(d.pdf(1.0), std::exp(-0.5) / std::sqrt(2.0 * M_PI), 1e-4);
}

TEST(MaxEnt, SamplesMatchDensityMoments) {
  const auto summary = make_moments(1.0, 0.08, -0.4, 3.2);
  const auto raw = raw_moments_from_summary(summary);
  const MaxEntDensity d(raw, 0.5, 1.5);
  Rng rng(17);
  const auto xs = d.sample_many(rng, 200000);
  const auto m = stats::compute_moments(xs);
  EXPECT_NEAR(m.mean, 1.0, 0.003);
  EXPECT_NEAR(m.stddev, 0.08, 0.003);
  EXPECT_NEAR(m.skewness, -0.4, 0.08);
  EXPECT_NEAR(m.kurtosis, 3.2, 0.15);
}

// The bulk draw gives the bytes of as many sample() calls from the same
// stream, and leaves the stream where they leave it.
TEST(MaxEnt, SampleManyEqualsRepeatedSample) {
  const MaxEntDensity d(raw_moments_from_summary(make_moments(1.0, 0.03, 0.5,
                                                              3.5)),
                        0.8, 1.2);
  for (const std::size_t n : {0ul, 1ul, 7ul, 8ul, 9ul, 2000ul}) {
    Rng many_rng(n + 23);
    Rng one_rng(n + 23);
    const auto many = d.sample_many(many_rng, n);
    ASSERT_EQ(many.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(many[i]),
                std::bit_cast<std::uint64_t>(d.sample(one_rng)))
          << "n=" << n << " draw " << i;
    }
    EXPECT_EQ(many_rng.uniform(), one_rng.uniform()) << "n=" << n;
  }
}

TEST(MaxEnt, RejectsBadInput) {
  EXPECT_THROW(MaxEntDensity(std::vector<double>{2.0, 0.0}, 0.0, 1.0),
               std::invalid_argument);  // mu_0 != 1
  EXPECT_THROW(MaxEntDensity(std::vector<double>{1.0}, 0.0, 1.0),
               std::invalid_argument);  // too few moments
  EXPECT_THROW(MaxEntDensity(std::vector<double>{1.0, 0.5}, 1.0, 1.0),
               std::invalid_argument);  // empty support
}

TEST(MaxEnt, SolveMomentSystemReportsConvergence) {
  const auto raw = raw_moments_from_summary(make_moments(1.0, 0.1, 0.6, 3.4));
  const auto solved = solve_moment_system(raw, 0.4, 1.6);
  EXPECT_TRUE(solved.converged);
  EXPECT_LT(solved.residual, 1e-6);
  EXPECT_EQ(solved.lambda.size(), raw.size());
  // A converged result constructs the same density the moment constructor
  // builds (same solver, same options).
  const MaxEntDensity from_solved(solved, 0.4, 1.6);
  const MaxEntDensity direct(raw, 0.4, 1.6);
  EXPECT_EQ(from_solved.pdf(1.0), direct.pdf(1.0));
  // A failed solve is rejected by the density constructor.
  const std::vector<double> infeasible = {1.0, 10.0, 100.5};
  const auto failed = solve_moment_system(infeasible, 0.0, 1.0);
  EXPECT_FALSE(failed.converged);
  EXPECT_THROW(MaxEntDensity(failed, 0.0, 1.0), CheckError);
}

TEST(MaxEnt, DensityExposesTheSolveItWasBuiltFrom) {
  const auto raw = raw_moments_from_summary(make_moments(1.0, 0.1, 0.6, 3.4));
  const auto solved = solve_moment_system(raw, 0.4, 1.6);
  ASSERT_TRUE(solved.converged);
  const MaxEntDensity d(solved, 0.4, 1.6);
  EXPECT_EQ(d.lo(), 0.4);
  EXPECT_EQ(d.hi(), 1.6);
  EXPECT_EQ(d.lambdas(), solved.lambda);
  EXPECT_EQ(d.iterations_used(), solved.iterations);
  // A cold start from the uniform density needs at least one Newton step,
  // and never more than the budget.
  const MaxEntDensity direct(raw, 0.4, 1.6);
  EXPECT_GT(direct.iterations_used(), 0u);
  EXPECT_LE(direct.iterations_used(), MaxEntOptions{}.max_iterations);
  EXPECT_EQ(direct.iterations_used(), solved.iterations);
}

TEST(MaxEnt, WarmStartConvergesToSameSolution) {
  // Seeding the Newton solver with the converged multipliers (the degrade
  // ladder's warm start) must converge immediately to the same lambda.
  const auto raw = raw_moments_from_summary(make_moments(1.0, 0.08, -0.4, 3.2));
  const auto cold = solve_moment_system(raw, 0.5, 1.5);
  ASSERT_TRUE(cold.converged);
  MaxEntOptions options;
  options.initial_lambda = cold.lambda;
  const auto warm = solve_moment_system(raw, 0.5, 1.5, options);
  ASSERT_TRUE(warm.converged);
  EXPECT_EQ(warm.lambda, cold.lambda);  // already at the optimum: no step
  EXPECT_LE(warm.iterations, cold.iterations);
  // A wrong-sized warm start is ignored, not an error.
  MaxEntOptions bad;
  bad.initial_lambda = {0.0};
  const auto ignored = solve_moment_system(raw, 0.5, 1.5, bad);
  EXPECT_TRUE(ignored.converged);
  EXPECT_EQ(ignored.lambda, cold.lambda);
}

TEST(MaxEnt, InfeasibleMomentsFailCleanly) {
  // Moments far outside the support cannot be matched; expect CheckError
  // (the pipeline catches it and falls back to fewer moments).
  const std::vector<double> raw = {1.0, 10.0, 100.5};
  EXPECT_THROW(MaxEntDensity(raw, 0.0, 1.0), CheckError);
}

struct ReconstructCase {
  double sd;
  double skew;
  double kurt;
};

class ReconstructSweep : public ::testing::TestWithParam<ReconstructCase> {};

TEST_P(ReconstructSweep, PipelineReconstructionIsFaithful) {
  const auto p = GetParam();
  const auto summary = make_moments(1.0, p.sd, p.skew, p.kurt);
  Rng rng(31);
  const auto xs = reconstruct_from_moments(summary, 100000, rng);
  const auto m = stats::compute_moments(xs);
  EXPECT_NEAR(m.mean, 1.0, 0.01);
  EXPECT_NEAR(m.stddev, p.sd, 0.15 * p.sd + 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    MomentGrid, ReconstructSweep,
    ::testing::Values(ReconstructCase{0.01, 0.0, 3.0},
                      ReconstructCase{0.05, 0.5, 3.5},
                      ReconstructCase{0.05, -0.5, 3.5},
                      ReconstructCase{0.10, 1.0, 4.5},
                      ReconstructCase{0.02, 2.0, 9.0},
                      ReconstructCase{0.08, 0.0, 2.2},
                      ReconstructCase{0.15, 3.0, 16.0}));

TEST(Reconstruct, DegenerateSigmaIsPointMass) {
  Rng rng(1);
  const auto xs =
      reconstruct_from_moments(make_moments(1.0, 0.0, 0.0, 3.0), 10, rng);
  for (const double x : xs) EXPECT_DOUBLE_EQ(x, 1.0);
}

}  // namespace
}  // namespace varpred::maxent
