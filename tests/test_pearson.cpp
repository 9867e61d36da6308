// Tests for the Pearson system: classification against the classical type
// regions and a property-based sweep verifying that sampled moments match
// the requested (mean, sd, skewness, kurtosis) across all seven families.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/distrepr.hpp"
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

// The type V surface satisfies c1^2 = 4 c0 c2 (kappa = 1). In the Pearson
// diagram the VI region sits between the III line (kappa = +inf) and the V
// line, with IV above: kappa decreases through 1 as kurtosis grows.
// Bisects for the crossing between the VI point `lo` and the IV point `hi`.
double type_v_kurtosis(double skew, double lo, double hi) {
  auto disc = [&](double kurt) {
    const double b1 = skew * skew;
    const double c0 = 4.0 * kurt - 3.0 * b1;
    const double c1 = skew * (kurt + 3.0);
    const double c2 = 2.0 * kurt - 3.0 * b1 - 6.0;
    return c1 * c1 / (4.0 * c0 * c2) - 1.0;
  };
  EXPECT_GT(disc(lo), 0.0);
  EXPECT_LT(disc(hi), 0.0);
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (disc(mid) > 0.0 ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

TEST(Classify, TypeVOnTheBoundary) {
  // 4.6 sits just above the III line (type VI, kappa >> 1); 8.0 is well
  // above the V line (type IV, kappa < 1).
  EXPECT_EQ(classify(1.0, type_v_kurtosis(1.0, 4.6, 8.0)),
            PearsonType::kTypeV);
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

// Without it gtest prints the raw bytes, including the uninitialised
// padding after expected_type, so the test names change between builds.
void PrintTo(const MomentTarget& t, std::ostream* os) {
  *os << "mean=" << t.mean << ",sd=" << t.sd << ",skew=" << t.skew
      << ",kurt=" << t.kurt;
}

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

// Type IV's bulk draw gives the bytes of as many sample() calls from the
// same stream, and leaves the stream where they leave it.
TEST(Sampler, TypeIvSampleManyEqualsRepeatedSample) {
  const PearsonSampler sampler(make_moments(1.0, 0.02, 0.8, 4.5));
  ASSERT_EQ(sampler.type(), PearsonType::kTypeIV);
  for (const std::size_t n : {0ul, 1ul, 7ul, 8ul, 9ul, 2000ul}) {
    Rng many_rng(n + 11);
    Rng one_rng(n + 11);
    const auto many = sampler.sample_many(many_rng, n);
    ASSERT_EQ(many.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(many[i]),
                std::bit_cast<std::uint64_t>(sampler.sample(one_rng)))
          << "n=" << n << " draw " << i;
    }
    EXPECT_EQ(many_rng.uniform(), one_rng.uniform()) << "n=" << n;
  }
}

// FNV-1a over the little-endian bytes of the bit pattern of every value.
std::uint64_t sample_digest(const std::vector<double>& xs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : xs) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xFFU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

constexpr std::size_t kFrozenDraws = 200;
constexpr std::uint64_t kFrozenSeed = 4242;

std::uint64_t frozen_digest(const PearsonSampler& sampler) {
  Rng rng(kFrozenSeed);
  return sample_digest(sampler.sample_many(rng, kFrozenDraws));
}

struct FrozenCase {
  const char* name;
  double mean;
  double sd;
  double skew;
  double kurt;
  PearsonType type;
  std::uint64_t digest;
};

// Digests of 200 seeded draws per family, recorded before the type IV table
// was rebuilt from the shared theta grid: any change to a sampler's
// arithmetic, including the order of the type IV trapezoid sum, changes a
// digest here. The kurtosis 0 on the type V case is a placeholder for the
// bisected V-line value.
const FrozenCase kFrozenCases[] = {
    {"normal", 1.0, 0.05, 0.0, 3.0, PearsonType::kNormal,
     0x546eb7d75bd26a20ULL},
    {"type_i_pos", 1.0, 0.1, 0.5, 2.5, PearsonType::kTypeI,
     0x2232cd054bbc28b0ULL},
    {"type_i_neg", 1.0, 0.1, -0.5, 2.5, PearsonType::kTypeI,
     0x6ce2a78ef5f1bc4cULL},
    {"type_ii", 2.0, 0.5, 0.0, 1.8, PearsonType::kTypeII,
     0xfc08cfaf123ccd2aULL},
    {"type_iii_pos", 1.0, 0.2, 1.0, 4.5, PearsonType::kTypeIII,
     0xf5b7d9f0e2a39bd0ULL},
    {"type_iii_neg", 1.0, 0.2, -1.0, 4.5, PearsonType::kTypeIII,
     0xb85dd85555de243aULL},
    {"type_v", 1.0, 0.1, 1.0, 0.0, PearsonType::kTypeV, 0x46af3f35b7f62418ULL},
    {"type_vi_pos", 1.0, 0.1, 2.0, 12.0, PearsonType::kTypeVI,
     0x8f646d87fbb534d5ULL},
    {"type_vi_neg", 1.0, 0.1, -2.0, 12.0, PearsonType::kTypeVI,
     0xea14709c389c56c2ULL},
    {"type_vii", 1.0, 0.1, 0.0, 5.0, PearsonType::kTypeVII,
     0xc9cbd09881fbca54ULL},
    // Type IV, m = 1 + r/2 and nu as in pearson.cpp:
    // both orientations (m 7.6, nu -/+5.8),
    {"type_iv_pos", 1.0, 0.1, 0.5, 4.0, PearsonType::kTypeIV,
     0x265956212df1bd3ULL},
    {"type_iv_neg", 1.0, 0.1, -0.5, 4.0, PearsonType::kTypeIV,
     0x7472cd75f7dbaa2ULL},
    // m at its floor: kurtosis at the sanitize cap (m 2.53, nu -0.29),
    {"type_iv_m_floor", 1.0, 0.05, 0.5, 100.0, PearsonType::kTypeIV,
     0x5b1bcf34c29c111dULL},
    // m large: just past the V line at small skew (m 322, nu -82),
    {"type_iv_m_large", 1.0, 0.1, 0.02, 3.01, PearsonType::kTypeIV,
     0x7e011e75591aba3dULL},
    // |nu| large on either side (m 10.3, nu +131; m 483, nu -405).
    {"type_iv_nu_large_neg_skew", 1.0, 0.1, -1.0, 4.98, PearsonType::kTypeIV,
     0x1a36158e3cf0113bULL},
    {"type_iv_nu_large", 1.0, 0.1, 0.05, 3.01, PearsonType::kTypeIV,
     0x9c9a248e8968a29aULL},
    // Two fits whose draws land next to the few grid points where a
    // correctly rounded log(cos theta) differs from libm's in the last bit.
    {"type_iv_grid_ulp_a", 1.0, 0.1, -1.0, 7.5, PearsonType::kTypeIV,
     0xe447cc0183ca5160ULL},
    {"type_iv_grid_ulp_b", 1.0, 0.1, 0.6, 4.0, PearsonType::kTypeIV,
     0x24582cad763befa4ULL},
};

TEST(FrozenSamples, EveryFamilyMatchesRecordedDigest) {
  for (const auto& c : kFrozenCases) {
    SCOPED_TRACE(c.name);
    const double kurt =
        c.type == PearsonType::kTypeV ? type_v_kurtosis(c.skew, 4.6, 8.0)
                                      : c.kurt;
    const PearsonSampler sampler(make_moments(c.mean, c.sd, c.skew, kurt));
    ASSERT_EQ(sampler.type(), c.type) << to_string(sampler.type());
    EXPECT_EQ(frozen_digest(sampler), c.digest)
        << std::hex << "0x" << frozen_digest(sampler);
  }
}

TEST(FrozenSamples, PearsonReprReconstructMatchesRecordedDigest) {
  // Predicted moments go through sanitize_moments and then a type IV fit.
  const std::vector<double> encoded = {1.02, 0.04, 0.8, 5.0};
  ASSERT_EQ(classify(0.8, 5.0), PearsonType::kTypeIV);
  Rng rng(kFrozenSeed);
  const auto xs = core::PearsonRepr().reconstruct(encoded, kFrozenDraws, rng);
  EXPECT_EQ(sample_digest(xs), 0x43b1fda5224c92a2ULL)
      << std::hex << "0x" << sample_digest(xs);
}

TEST(FrozenSamples, ConcurrentTypeIvSamplersMatchSerial) {
  // Concurrent construction runs first, so under ctest, which runs each
  // test in its own process, it also covers several threads touching the
  // process-wide theta grid for the first time at once.
  std::vector<stats::Moments> targets;
  for (int i = 0; i < 64; ++i) {
    const double skew = (i % 2 == 0 ? 1.0 : -1.0) * (0.1 + 0.02 * i);
    targets.push_back(make_moments(1.0, 0.1, skew, 4.0 + 0.1 * i));
  }
  std::vector<std::uint64_t> concurrent(targets.size());
  ThreadPool pool(4);
  pool.parallel_for(targets.size(), [&](std::size_t i) {
    concurrent[i] = frozen_digest(PearsonSampler(targets[i]));
  });
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const PearsonSampler serial(targets[i]);
    ASSERT_EQ(serial.type(), PearsonType::kTypeIV) << i;
    EXPECT_EQ(concurrent[i], frozen_digest(serial)) << i;
  }
}

TEST(EnumNames, OutOfRangePearsonTypeThrows) {
  EXPECT_THROW(to_string(static_cast<PearsonType>(99)), std::invalid_argument);
}

}  // namespace
}  // namespace varpred::pearson
