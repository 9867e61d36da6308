// Tests for the library extensions beyond the paper: ridge regression,
// permutation importance, Wasserstein distance, the quantile
// representation, the ARM system model, and SVG figure rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/distrepr.hpp"
#include "core/models.hpp"
#include "io/svg_plot.hpp"
#include "measure/corpus.hpp"
#include "ml/importance.hpp"
#include "ml/ridge.hpp"
#include "ml/serialize.hpp"
#include "rngdist/samplers.hpp"
#include "stats/ecdf.hpp"
#include "stats/ks.hpp"
#include "stats/scores.hpp"
#include "stats/wasserstein.hpp"

namespace varpred {
namespace {

ml::Matrix linear_x(std::size_t n, std::uint64_t seed) {
  ml::Matrix x(n, 3);
  Rng rng(seed);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < 3; ++c) x(r, c) = rng.uniform(-1.0, 1.0);
  }
  return x;
}

ml::Matrix linear_y(const ml::Matrix& x, double noise, std::uint64_t seed) {
  ml::Matrix y(x.rows(), 2);
  Rng rng(seed);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    y(r, 0) = 3.0 * x(r, 0) - 1.0 * x(r, 1) + 0.5 +
              noise * rngdist::normal(rng);
    y(r, 1) = -2.0 * x(r, 2) + 1.5 + noise * rngdist::normal(rng);
  }
  return y;
}

TEST(Ridge, RecoversLinearRelationship) {
  const auto x = linear_x(200, 1);
  const auto y = linear_y(x, 0.01, 2);
  ml::RidgeRegressor ridge(ml::RidgeParams{.lambda = 1e-6,
                                           .standardize = false});
  ridge.fit(x, y);
  const auto p = ridge.predict(std::vector<double>{0.5, -0.5, 0.25});
  EXPECT_NEAR(p[0], 3.0 * 0.5 + 0.5 + 0.5, 0.05);
  EXPECT_NEAR(p[1], -2.0 * 0.25 + 1.5, 0.05);
}

TEST(Ridge, RegularizationShrinksWeights) {
  const auto x = linear_x(50, 3);
  const auto y = linear_y(x, 0.2, 4);
  ml::RidgeRegressor weak(ml::RidgeParams{.lambda = 1e-4,
                                          .standardize = false});
  ml::RidgeRegressor strong(ml::RidgeParams{.lambda = 1e4,
                                            .standardize = false});
  weak.fit(x, y);
  strong.fit(x, y);
  double weak_norm = 0.0;
  double strong_norm = 0.0;
  for (std::size_t f = 0; f < 3; ++f) {
    weak_norm += std::fabs(weak.weights()(f, 0));
    strong_norm += std::fabs(strong.weights()(f, 0));
  }
  EXPECT_LT(strong_norm, 0.2 * weak_norm);
}

TEST(Ridge, WideFeatureMatrixIsStable) {
  // More features than samples: the dual solve must stay well-posed.
  ml::Matrix x(20, 100);
  Rng rng(5);
  for (std::size_t r = 0; r < 20; ++r) {
    for (std::size_t c = 0; c < 100; ++c) x(r, c) = rng.uniform(-1.0, 1.0);
  }
  ml::Matrix y(20, 1);
  for (std::size_t r = 0; r < 20; ++r) y(r, 0) = x(r, 0);
  ml::RidgeRegressor ridge;
  ridge.fit(x, y);
  const auto p = ridge.predict(x.row(0));
  EXPECT_TRUE(std::isfinite(p[0]));
}

TEST(Ridge, SerializationRoundTrip) {
  const auto x = linear_x(60, 6);
  const auto y = linear_y(x, 0.05, 7);
  ml::RidgeRegressor ridge;
  ridge.fit(x, y);
  std::stringstream ss;
  ridge.save(ss);
  const auto restored = ml::load_regressor(ss);
  EXPECT_EQ(restored->name(), "Ridge");
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_EQ(ridge.predict(x.row(r)), restored->predict(x.row(r)));
  }
}

TEST(Ridge, AvailableThroughModelZoo) {
  const auto model = core::make_model(core::ModelKind::kRidge);
  EXPECT_EQ(model->name(), "Ridge");
  EXPECT_EQ(core::extended_model_kinds().size(), 4u);
  EXPECT_EQ(core::all_model_kinds().size(), 3u);  // the paper's three
}

TEST(Importance, PermutationFindsTheRealFeatures) {
  // y depends on features 0 and 1 but not 2.
  const auto x = linear_x(300, 12);
  ml::Matrix y(x.rows(), 1);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    y(r, 0) = 2.0 * x(r, 0) + 1.0 * x(r, 1);
  }
  ml::RidgeRegressor ridge(ml::RidgeParams{.lambda = 1e-6,
                                           .standardize = false});
  ridge.fit(x, y);
  Rng rng(13);
  const auto importance = ml::permutation_importance(ridge, x, y, 3, rng);
  ASSERT_EQ(importance.size(), 3u);
  EXPECT_GT(importance[0], importance[2] + 0.5);
  EXPECT_GT(importance[1], importance[2] + 0.1);
  const auto top = ml::top_features(importance, 2);
  EXPECT_EQ(top[0], 0u);
  EXPECT_EQ(top[1], 1u);
}

TEST(Wasserstein, KnownDistances) {
  // Two point masses: W1 equals their separation.
  const std::vector<double> a = {0.0, 0.0, 0.0};
  const std::vector<double> b = {1.0, 1.0};
  EXPECT_NEAR(stats::wasserstein1(a, b), 1.0, 1e-12);
  // Identical samples: zero.
  EXPECT_DOUBLE_EQ(stats::wasserstein1(a, a), 0.0);
  // Shift by c shifts W1 by exactly c.
  const std::vector<double> c = {0.25, 0.75};
  std::vector<double> c_shift = {1.25, 1.75};
  EXPECT_NEAR(stats::wasserstein1(c, c_shift), 1.0, 1e-12);
}

TEST(Wasserstein, MatchesNormalTheory) {
  // W1 between N(0,1) and N(mu,1) equals |mu| for large samples.
  Rng rng(14);
  std::vector<double> a(20000);
  std::vector<double> b(20000);
  for (auto& v : a) v = rngdist::normal(rng, 0.0, 1.0);
  for (auto& v : b) v = rngdist::normal(rng, 0.7, 1.0);
  EXPECT_NEAR(stats::wasserstein1(a, b), 0.7, 0.03);
}

TEST(Wasserstein, NormalizedVariantIsScaleFree) {
  Rng rng(15);
  std::vector<double> a(5000);
  std::vector<double> b(5000);
  for (auto& v : a) v = rngdist::normal(rng, 1.0, 0.01);
  for (auto& v : b) v = rngdist::normal(rng, 1.005, 0.01);
  auto a10 = a;
  auto b10 = b;
  for (auto& v : a10) v *= 10.0;
  for (auto& v : b10) v *= 10.0;
  EXPECT_NEAR(stats::wasserstein1_normalized(a, b),
              stats::wasserstein1_normalized(a10, b10), 1e-9);
}

TEST(Wasserstein, NormalizedUsesPopulationConvention) {
  // W1({0,1}, {1,2}) = 1; each sample's population variance is 0.25, so the
  // pooled population sd is 0.5 and the normalized distance is exactly 2.
  // (The n-1 sample convention would give sqrt(0.5) * 2 instead.)
  const std::vector<double> a = {0.0, 1.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_NEAR(stats::wasserstein1_normalized(a, b), 2.0, 1e-12);
}

TEST(Wasserstein, DegenerateSamplesReportZeroOrInfinity) {
  // Identical point masses: no transport, zero distance.
  const std::vector<double> p = {3.0, 3.0};
  EXPECT_DOUBLE_EQ(stats::wasserstein1_normalized(p, p), 0.0);
  // Distinct point masses: nonzero transport over zero pooled spread — the
  // scale-free distance is unbounded, reported as +infinity (not a magic
  // finite sentinel).
  const std::vector<double> q = {4.0, 4.0};
  EXPECT_TRUE(std::isinf(stats::wasserstein1_normalized(p, q)));
  EXPECT_GT(stats::wasserstein1_normalized(p, q), 0.0);
}

TEST(Wasserstein, RejectsNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> clean = {1.0, 2.0, 3.0};
  std::vector<double> dirty(500, 1.0);
  dirty[100] = nan;
  EXPECT_THROW(stats::wasserstein1(clean, {{nan}}), std::invalid_argument);
  EXPECT_THROW(stats::wasserstein1(dirty, clean), std::invalid_argument);
  EXPECT_THROW(stats::wasserstein1_normalized(clean, dirty),
               std::invalid_argument);
}

// An infinite support has no finite transport cost: every W1 entry point
// throws instead of returning the NaN the merge's inf - inf and 0 * inf
// would give (wasserstein1({0, inf}, {0, inf}) was NaN).
TEST(Wasserstein, RejectsInfinities) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> clean = {0.5, 1.0, 2.0};
  const std::vector<std::vector<double>> dirty = {
      {0.0, inf}, {-inf, 0.0}, {-inf, inf}, {inf}, {1.0, -inf, 2.0}};
  for (const auto& d : dirty) {
    EXPECT_THROW(stats::wasserstein1(d, d), std::invalid_argument);
    EXPECT_THROW(stats::wasserstein1(clean, d), std::invalid_argument);
    EXPECT_THROW(stats::wasserstein1(d, clean), std::invalid_argument);
    EXPECT_THROW(stats::wasserstein1_normalized(d, clean),
                 std::invalid_argument);
    std::vector<double> measured = clean;
    std::vector<double> predicted = d;
    EXPECT_THROW(stats::score_pair_in_place(measured, predicted),
                 std::invalid_argument);
    predicted = d;
    EXPECT_THROW(stats::score_pair_in_place(predicted, measured),
                 std::invalid_argument);
  }
  // Finite samples are scored as before.
  EXPECT_EQ(stats::wasserstein1(clean, clean), 0.0);
}

TEST(QuantileRepr, EncodeIsMonotoneQuantiles) {
  Rng rng(18);
  std::vector<double> xs(3000);
  for (auto& v : xs) v = rngdist::gamma(rng, 3.0, 0.02) + 0.95;
  core::QuantileRepr repr(16);
  const auto enc = repr.encode(xs);
  ASSERT_EQ(enc.size(), 16u);
  for (std::size_t i = 1; i < enc.size(); ++i) {
    EXPECT_GE(enc[i], enc[i - 1]);
  }
  EXPECT_NEAR(enc[8], stats::median(xs), 0.01);
}

TEST(QuantileRepr, RoundTripIsTight) {
  Rng rng(19);
  std::vector<double> xs(4000);
  for (auto& v : xs) v = rngdist::normal(rng, 1.0, 0.03);
  core::QuantileRepr repr;
  const auto enc = repr.encode(xs);
  Rng rng2(20);
  const auto back = repr.reconstruct(enc, 4000, rng2);
  EXPECT_LT(stats::ks_statistic(xs, back), 0.06);
}

TEST(QuantileRepr, SortsNonMonotonePredictions) {
  core::QuantileRepr repr(4);
  const std::vector<double> scrambled = {1.1, 0.9, 1.0, 1.05};
  Rng rng(21);
  const auto xs = repr.reconstruct(scrambled, 1000, rng);
  for (const double x : xs) {
    EXPECT_GE(x, 0.9);
    EXPECT_LE(x, 1.1);
  }
}

TEST(QuantileRepr, RegisteredInFactory) {
  const auto repr = core::DistributionRepr::create(core::ReprKind::kQuantile);
  EXPECT_EQ(repr->name(), "Quantile");
  EXPECT_EQ(core::extended_repr_kinds().size(), 4u);
  EXPECT_EQ(core::all_repr_kinds().size(), 3u);
}

TEST(ArmSystem, RegisteredAndDistinct) {
  const auto& arm = measure::SystemModel::arm();
  EXPECT_EQ(arm.name(), "arm");
  EXPECT_EQ(arm.metric_count(), measure::arm_metrics().size());
  EXPECT_EQ(&measure::SystemModel::by_name("arm"), &arm);
  EXPECT_EQ(measure::SystemModel::all_systems().size(), 3u);
  // A corpus builds and differs from the Intel one.
  const auto corpus = measure::build_corpus(arm, 50, 7);
  EXPECT_EQ(corpus.benchmarks.size(), 60u);
  EXPECT_EQ(corpus.benchmarks[0].counters.cols(), arm.metric_count());
}

TEST(ArmSystem, HasExactlyOneDurationMetric) {
  int durations = 0;
  for (const auto& m : measure::arm_metrics()) {
    durations += (m.category == measure::MetricCategory::kDuration);
  }
  EXPECT_EQ(durations, 1);
}

TEST(SvgFigure, RendersWellFormedDocument) {
  Rng rng(22);
  std::vector<double> xs(500);
  for (auto& v : xs) v = rngdist::normal(rng, 1.0, 0.05);
  io::SvgFigure figure("Test figure", "relative time", "density");
  figure.add_density(xs, "measured", "#1f77b4", true);
  figure.add_density(xs, "predicted", "#d62728");
  const auto svg = figure.render();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("polyline"), std::string::npos);
  EXPECT_NE(svg.find("measured"), std::string::npos);
  // Escaping.
  io::SvgFigure fig2("a < b & c", "x", "y");
  fig2.add_curve(io::SvgCurve{{0.0, 1.0}, {0.0, 1.0}, "#000", "", 1.0,
                              false});
  EXPECT_NE(fig2.render().find("a &lt; b &amp; c"), std::string::npos);
}

TEST(SvgFigure, RejectsEmptyAndMismatched) {
  io::SvgFigure figure("t", "x", "y");
  EXPECT_THROW(figure.render(), std::invalid_argument);
  EXPECT_THROW(figure.add_curve(io::SvgCurve{{1.0}, {1.0, 2.0}, "#000", "",
                                             1.0, false}),
               std::invalid_argument);
}

}  // namespace
}  // namespace varpred
