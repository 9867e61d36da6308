// Tests for the prediction pipelines: profile construction, the two
// predictors, and the evaluator. Uses reduced corpora (fewer runs) to stay
// fast while exercising the full training/prediction paths.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <set>
#include <span>

#include "core/crosssystem.hpp"
#include "core/evalcache.hpp"
#include "core/evaluator.hpp"
#include "core/predictor.hpp"
#include "core/profile.hpp"
#include "ml/forest.hpp"
#include "ml/gbt.hpp"
#include "ml/knn.hpp"
#include "obs/obs.hpp"
#include "obs/quality.hpp"
#include "rngdist/samplers.hpp"
#include "stats/moments.hpp"
#include "stats/ks.hpp"
#include "stats/overlap.hpp"
#include "stats/wasserstein.hpp"

namespace varpred::core {
namespace {

const measure::Corpus& small_intel() {
  static const measure::Corpus corpus =
      measure::build_corpus(measure::SystemModel::intel(), 200, 7);
  return corpus;
}

const measure::Corpus& small_amd() {
  static const measure::Corpus corpus =
      measure::build_corpus(measure::SystemModel::amd(), 200, 7);
  return corpus;
}

TEST(Profile, DimensionsMatchOptions) {
  const auto& corpus = small_intel();
  const auto& runs = corpus.benchmarks[0];
  const std::vector<std::size_t> idx = {0, 1, 2};
  const auto full = build_profile(*corpus.system, runs, idx);
  EXPECT_EQ(full.size(), corpus.system->metric_count() * 4);
  ProfileOptions mean_only;
  mean_only.include_higher_moments = false;
  const auto lean = build_profile(*corpus.system, runs, idx, mean_only);
  EXPECT_EQ(lean.size(), corpus.system->metric_count());
  EXPECT_EQ(profile_feature_names(*corpus.system).size(), full.size());
}

TEST(Profile, PerSecondNormalization) {
  // A profile feature's mean must equal the mean of counter/runtime.
  const auto& corpus = small_intel();
  const auto& runs = corpus.benchmarks[3];
  const std::vector<std::size_t> idx = {0, 5, 9};
  const auto features = build_profile(*corpus.system, runs, idx);
  double expected = 0.0;
  for (const auto r : idx) {
    expected += runs.counters(r, 0) / runs.runtimes[r] / 3.0;
  }
  EXPECT_NEAR(features[0], expected, 1e-9 * expected);
}

TEST(Profile, SingleRunHasZeroHigherMoments) {
  const auto& corpus = small_intel();
  const auto& runs = corpus.benchmarks[0];
  const std::vector<std::size_t> idx = {4};
  const auto features = build_profile(*corpus.system, runs, idx);
  for (std::size_t m = 0; m < corpus.system->metric_count(); ++m) {
    EXPECT_DOUBLE_EQ(features[m * 4 + 1], 0.0);  // sd
    EXPECT_DOUBLE_EQ(features[m * 4 + 2], 0.0);  // skew
  }
}

TEST(Profile, InvalidArguments) {
  const auto& corpus = small_intel();
  const auto& runs = corpus.benchmarks[0];
  EXPECT_THROW(build_profile(*corpus.system, runs, std::vector<std::size_t>{}),
               std::invalid_argument);
  EXPECT_THROW(
      build_profile(*corpus.system, runs, std::vector<std::size_t>{99999}),
      std::invalid_argument);
}

TEST(Profile, FullProfileEqualsProfileOverEveryRun) {
  const auto& corpus = small_intel();
  const auto& runs = corpus.benchmarks[6];
  std::vector<std::size_t> every(runs.run_count());
  std::iota(every.begin(), every.end(), std::size_t{0});
  for (const bool higher : {true, false}) {
    ProfileOptions options;
    options.include_higher_moments = higher;
    EXPECT_EQ(build_full_profile(*corpus.system, runs, options),
              build_profile(*corpus.system, runs, every, options))
        << "include_higher_moments=" << higher;
  }
}

// The oracle profile: one MomentAccumulator per metric fed run by run, the
// moments read back per metric.
std::vector<double> oracle_profile(const measure::SystemModel& system,
                                   const measure::BenchmarkRuns& runs,
                                   std::span<const std::size_t> idx,
                                   const ProfileOptions& options) {
  const std::size_t n_metrics = system.metric_count();
  const std::size_t per_metric = options.features_per_metric();
  std::vector<stats::MomentAccumulator> acc(n_metrics);
  for (const std::size_t r : idx) {
    for (std::size_t m = 0; m < n_metrics; ++m) {
      acc[m].add(runs.counters(r, m) / runs.runtimes[r]);
    }
  }
  std::vector<double> out(n_metrics * per_metric);
  for (std::size_t m = 0; m < n_metrics; ++m) {
    const auto moments = acc[m].moments();
    out[m * per_metric] = moments.mean;
    if (options.include_higher_moments) {
      out[m * per_metric + 1] = moments.stddev;
      out[m * per_metric + 2] = moments.skewness;
      out[m * per_metric + 3] = moments.kurtosis;
    }
  }
  return out;
}

// build_profile must equal the per-metric accumulator loop bit for bit, in
// every feature, whatever loop shape computes it.
TEST(Profile, MatchesMomentAccumulatorOracle) {
  const auto& intel = small_intel();
  const measure::BenchmarkRuns big =
      measure::measure_benchmark(11, measure::SystemModel::amd(), 1000, 7);
  std::vector<std::size_t> all_big(big.run_count());
  std::iota(all_big.begin(), all_big.end(), std::size_t{0});
  struct Case {
    const measure::SystemModel* system;
    const measure::BenchmarkRuns* runs;
    std::vector<std::size_t> idx;
  };
  const std::vector<Case> cases = {
      {intel.system, &intel.benchmarks[2], {7}},
      {intel.system, &intel.benchmarks[5],
       {0, 3, 9, 12, 40, 41, 77, 103, 150, 199}},
      {intel.system, &intel.benchmarks[8], {4, 4, 4, 17, 17, 60, 4}},
      {&measure::SystemModel::amd(), &big, all_big},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (const bool higher : {true, false}) {
      ProfileOptions options;
      options.include_higher_moments = higher;
      const auto& [system, runs, idx] = cases[c];
      const auto got = build_profile(*system, *runs, idx, options);
      const auto want = oracle_profile(*system, *runs, idx, options);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << "case " << c << " higher=" << higher << " feature " << i;
      }
    }
  }
}

TEST(ChooseRunIndices, DistinctAndDeterministic) {
  Rng a(5);
  Rng b(5);
  const auto x = choose_run_indices(100, 10, a);
  const auto y = choose_run_indices(100, 10, b);
  EXPECT_EQ(x, y);
  std::set<std::size_t> unique(x.begin(), x.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const auto i : x) EXPECT_LT(i, 100u);
  Rng c(5);
  EXPECT_THROW(choose_run_indices(5, 6, c), std::invalid_argument);
}

TEST(FewRuns, TrainPredictShapesAndDeterminism) {
  const auto& corpus = small_intel();
  FewRunsConfig config;
  config.n_probe_runs = 5;
  FewRunsPredictor predictor(config);
  EXPECT_FALSE(predictor.trained());

  std::vector<std::size_t> training(corpus.benchmarks.size() - 1);
  std::iota(training.begin(), training.end(), std::size_t{1});
  predictor.train(corpus, training);
  EXPECT_TRUE(predictor.trained());

  const auto& held = corpus.benchmarks[0];
  const std::vector<std::size_t> probe = {0, 1, 2, 3, 4};
  Rng r1(42);
  Rng r2(42);
  const auto p1 = predictor.predict_distribution(held, probe, 500, r1);
  const auto p2 = predictor.predict_distribution(held, probe, 500, r2);
  EXPECT_EQ(p1.size(), 500u);
  EXPECT_EQ(p1, p2);
  for (const double x : p1) EXPECT_TRUE(std::isfinite(x));
}

TEST(FewRuns, PredictBeforeTrainThrows) {
  FewRunsPredictor predictor;
  const auto& corpus = small_intel();
  const std::vector<std::size_t> probe = {0};
  Rng rng(1);
  EXPECT_THROW(
      predictor.predict_distribution(corpus.benchmarks[0], probe, 10, rng),
      CheckError);
}

TEST(FewRuns, ModelFactoryOverrideIsUsed) {
  const auto& corpus = small_intel();
  int factory_calls = 0;
  FewRunsConfig config;
  config.model_factory = [&factory_calls]() {
    ++factory_calls;
    ml::KnnParams params;
    params.k = 3;
    return std::make_unique<ml::KnnRegressor>(params);
  };
  FewRunsPredictor predictor(config);
  predictor.train_all(corpus);
  EXPECT_EQ(factory_calls, 1);
  EXPECT_TRUE(predictor.trained());
}

TEST(FewRuns, PredictionBeatsCorpusMeanOnWidth) {
  // The model must at least distinguish a very narrow benchmark from a wide
  // one: predicted sd ordering should match the truth ordering.
  const auto& corpus = small_intel();
  FewRunsConfig config;
  EvalOptions options;
  const std::size_t narrow = measure::benchmark_index("rodinia/heartwall");
  const std::size_t wide = measure::benchmark_index("specaccel/303");
  const auto p_narrow =
      predict_held_out_few_runs(corpus, narrow, config, options);
  const auto p_wide = predict_held_out_few_runs(corpus, wide, config, options);
  EXPECT_LT(stats::compute_moments(p_narrow).stddev,
            stats::compute_moments(p_wide).stddev);
}

TEST(CrossSystem, TrainPredictAndFeatureLayout) {
  const auto& amd = small_amd();
  const auto& intel = small_intel();
  CrossSystemConfig config;
  CrossSystemPredictor predictor(config);

  const auto features =
      predictor.make_features(*amd.system, amd.benchmarks[0]);
  EXPECT_EQ(features.size(), amd.system->metric_count() * 4 + 4);

  predictor.train_all(amd, intel);
  EXPECT_TRUE(predictor.trained());
  Rng rng(9);
  const auto predicted =
      predictor.predict_distribution(amd.benchmarks[0], 400, rng);
  EXPECT_EQ(predicted.size(), 400u);
}

TEST(CrossSystem, PredictDistributionReconstructsThePredictedEncoding) {
  const auto& amd = small_amd();
  const auto& intel = small_intel();
  CrossSystemPredictor predictor;
  const auto features =
      predictor.make_features(*amd.system, amd.benchmarks[2]);
  EXPECT_THROW(predictor.predict_encoded(features), CheckError);
  predictor.train_all(amd, intel);
  const auto encoded = predictor.predict_encoded(features);
  EXPECT_EQ(encoded.size(), predictor.repr().dim());
  EXPECT_EQ(encoded, predictor.predict_encoded(features));
  Rng direct_rng(21);
  Rng manual_rng(21);
  EXPECT_EQ(predictor.predict_distribution(amd.benchmarks[2], 250, direct_rng),
            predictor.repr().reconstruct(encoded, 250, manual_rng));
}

TEST(CrossSystem, MismatchedCorporaRejected) {
  const auto& amd = small_amd();
  measure::Corpus truncated = small_intel();
  truncated.benchmarks.resize(10);
  CrossSystemPredictor predictor;
  std::vector<std::size_t> training = {0, 1, 2};
  EXPECT_THROW(predictor.train(amd, truncated, training),
               std::invalid_argument);
}

TEST(Evaluator, FewRunsProducesScorePerBenchmark) {
  const auto& corpus = small_intel();
  FewRunsConfig config;
  EvalOptions options;
  options.n_reconstruct = 500;
  const auto result = evaluate_few_runs(corpus, config, options);
  ASSERT_EQ(result.ks.size(), corpus.benchmarks.size());
  ASSERT_EQ(result.benchmark_names.size(), corpus.benchmarks.size());
  for (const double ks : result.ks) {
    EXPECT_GE(ks, 0.0);
    EXPECT_LE(ks, 1.0);
  }
  EXPECT_EQ(result.benchmark_names[0], "npb/bt");
  const auto s = result.summary();
  EXPECT_GT(s.mean, 0.0);
  EXPECT_LT(s.mean, 0.6);  // far better than random
}

TEST(Evaluator, CrossSystemProducesScorePerBenchmark) {
  const auto& amd = small_amd();
  const auto& intel = small_intel();
  CrossSystemConfig config;
  EvalOptions options;
  options.n_reconstruct = 500;
  const auto result = evaluate_cross_system(amd, intel, config, options);
  ASSERT_EQ(result.ks.size(), intel.benchmarks.size());
  EXPECT_LT(result.mean_ks(), 0.6);
}

TEST(Evaluator, DeterministicAcrossInvocations) {
  const auto& corpus = small_intel();
  FewRunsConfig config;
  EvalOptions options;
  options.n_reconstruct = 300;
  const auto a = evaluate_few_runs(corpus, config, options);
  const auto b = evaluate_few_runs(corpus, config, options);
  EXPECT_EQ(a.ks, b.ks);
}

TEST(Evaluator, HeldOutCrossSystemPredictionIsDeterministic) {
  const auto& amd = small_amd();
  const auto& intel = small_intel();
  CrossSystemConfig config;
  EvalOptions options;
  options.n_reconstruct = 300;
  const auto a = predict_held_out_cross_system(amd, intel, 4, config, options);
  const auto b = predict_held_out_cross_system(amd, intel, 4, config, options);
  ASSERT_EQ(a.size(), 300u);
  EXPECT_EQ(a, b);
  // Predictions are relative times: positive, centred near 1.
  for (const double x : a) EXPECT_GT(x, 0.0);
  EXPECT_NEAR(stats::compute_moments(a).mean, 1.0, 0.25);
  EXPECT_THROW(predict_held_out_cross_system(amd, intel,
                                             intel.benchmarks.size(), config,
                                             options),
               std::invalid_argument);
}

// score_window is the one scoring function shared by the LOGO-CV fold loops
// and the config-aware evaluation.
TEST(ScoreWindow, MatchesTheStatsMetricsExactly) {
  Rng rng(17);
  std::vector<double> measured(300);
  std::vector<double> predicted(500);
  for (auto& x : measured) x = rngdist::normal(rng, 1.0, 0.05);
  for (auto& x : predicted) x = rngdist::normal(rng, 1.02, 0.07);
  const WindowScore score = score_window(measured, predicted);
  EXPECT_EQ(score.ks, stats::ks_statistic(measured, predicted));
  EXPECT_EQ(score.wasserstein1,
            stats::wasserstein1_normalized(measured, predicted));
  EXPECT_EQ(score.overlap, stats::overlap_coefficient(measured, predicted));
}

TEST(ScoreWindow, IdenticalSamplesScorePerfect) {
  Rng rng(3);
  std::vector<double> sample(400);
  for (auto& x : sample) x = rngdist::normal(rng, 1.0, 0.1);
  const WindowScore score = score_window(sample, sample);
  EXPECT_EQ(score.ks, 0.0);
  EXPECT_EQ(score.wasserstein1, 0.0);
  EXPECT_NEAR(score.overlap, 1.0, 1e-12);
}

TEST(ScoreWindow, DisjointSamplesScoreWorst) {
  const std::vector<double> low = {0.90, 0.92, 0.94, 0.96, 0.98};
  const std::vector<double> high = {1.50, 1.52, 1.54, 1.56, 1.58};
  const WindowScore score = score_window(low, high);
  EXPECT_EQ(score.ks, 1.0);
  EXPECT_EQ(score.overlap, 0.0);
  EXPECT_GT(score.wasserstein1, 1.0);
}

TEST(ScoreWindow, EveryMetricWorsensWithLocationShift) {
  Rng rng(11);
  std::vector<double> measured(600);
  std::vector<double> base(600);
  for (auto& x : measured) x = rngdist::normal(rng, 1.0, 0.05);
  for (auto& x : base) x = rngdist::normal(rng, 1.0, 0.05);
  WindowScore last = score_window(measured, base);
  for (const double shift : {0.02, 0.05, 0.10}) {
    std::vector<double> shifted = base;
    for (auto& x : shifted) x += shift;
    const WindowScore score = score_window(measured, shifted);
    EXPECT_GT(score.ks, last.ks) << "shift " << shift;
    EXPECT_GT(score.wasserstein1, last.wasserstein1) << "shift " << shift;
    EXPECT_LT(score.overlap, last.overlap) << "shift " << shift;
    last = score;
  }
}

// Exact bits of all three scores on fixed samples: heavy ties on a 0.01
// grid, and two normal draws of the fold sizes. MatchesTheStatsMetricsExactly
// cannot catch a drift of the metrics themselves; these constants can.
TEST(ScoreWindow, RecordedBits) {
  std::vector<double> tied_measured(300);
  std::vector<double> tied_predicted(500);
  for (std::size_t i = 0; i < tied_measured.size(); ++i) {
    tied_measured[i] = 1.0 + 0.01 * static_cast<double>(i % 7);
  }
  for (std::size_t i = 0; i < tied_predicted.size(); ++i) {
    tied_predicted[i] = 0.98 + 0.01 * static_cast<double>((i * 5) % 11);
  }
  Rng rng(29);
  std::vector<double> drawn_measured(1000);
  std::vector<double> drawn_predicted(2000);
  for (auto& x : drawn_measured) x = rngdist::normal(rng, 1.0, 0.05);
  for (auto& x : drawn_predicted) x = rngdist::normal(rng, 1.01, 0.06);
  struct Expected {
    const std::vector<double>* measured;
    const std::vector<double>* predicted;
    std::uint64_t ks;
    std::uint64_t w1;
    std::uint64_t overlap;
  };
  const Expected kExpected[] = {
      {&tied_measured, &tied_predicted, 0x3fc78d4fdf3b645cULL,
       0x3fd8a88b9feb8fa4ULL, 0x3fe449ba5e353f81ULL},
      {&drawn_measured, &drawn_predicted, 0x3fb4bc6a7ef9db20ULL,
       0x3fc4fa33710b57d9ULL, 0x3fec7ae147ae1480ULL},
  };
  for (const auto& e : kExpected) {
    const WindowScore score = score_window(*e.measured, *e.predicted);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(score.ks), e.ks)
        << std::hex << std::bit_cast<std::uint64_t>(score.ks);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(score.wasserstein1), e.w1)
        << std::hex << std::bit_cast<std::uint64_t>(score.wasserstein1);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(score.overlap), e.overlap)
        << std::hex << std::bit_cast<std::uint64_t>(score.overlap);
  }
}

// Pins VARPRED_EVAL_NO_CACHE for one evaluation, restoring on scope exit so
// the rest of the suite keeps exercising the cached hot path.
class ScopedNoCache {
 public:
  ScopedNoCache() { ::setenv("VARPRED_EVAL_NO_CACHE", "1", 1); }
  ~ScopedNoCache() { ::unsetenv("VARPRED_EVAL_NO_CACHE"); }
  ScopedNoCache(const ScopedNoCache&) = delete;
  ScopedNoCache& operator=(const ScopedNoCache&) = delete;
};

// S4: the fold-level evaluation cache (shared profiles/targets/presorted
// columns) must change no score, for every distribution representation.
// EXPECT_EQ on doubles — byte-identical, not merely close.
TEST(EvalCache, FewRunsScoresMatchUncachedPathForAllReprs) {
  const auto& corpus = small_intel();
  for (const ReprKind repr :
       {ReprKind::kHistogram, ReprKind::kMaxEnt, ReprKind::kPearson,
        ReprKind::kQuantile}) {
    FewRunsConfig config;
    config.repr = repr;
    EvalOptions options;
    options.n_reconstruct = 200;
    const auto cached = evaluate_few_runs(corpus, config, options);
    EvalResult uncached;
    {
      ScopedNoCache pin;
      uncached = evaluate_few_runs(corpus, config, options);
    }
    ASSERT_EQ(cached.ks.size(), uncached.ks.size());
    for (std::size_t b = 0; b < cached.ks.size(); ++b) {
      EXPECT_EQ(cached.ks[b], uncached.ks[b])
          << to_string(repr) << " fold " << b;
    }
  }
}

TEST(EvalCache, CrossSystemScoresMatchUncachedPathForAllReprs) {
  const auto& amd = small_amd();
  const auto& intel = small_intel();
  for (const ReprKind repr :
       {ReprKind::kHistogram, ReprKind::kMaxEnt, ReprKind::kPearson,
        ReprKind::kQuantile}) {
    CrossSystemConfig config;
    config.repr = repr;
    EvalOptions options;
    options.n_reconstruct = 200;
    const auto cached = evaluate_cross_system(amd, intel, config, options);
    EvalResult uncached;
    {
      ScopedNoCache pin;
      uncached = evaluate_cross_system(amd, intel, config, options);
    }
    ASSERT_EQ(cached.ks.size(), uncached.ks.size());
    for (std::size_t b = 0; b < cached.ks.size(); ++b) {
      EXPECT_EQ(cached.ks[b], uncached.ks[b])
          << to_string(repr) << " fold " << b;
    }
  }
}

// Same equivalence through the tree learners, which additionally consume the
// cache's presorted-column artifact (segment-mode fits).
TEST(EvalCache, TreeModelScoresMatchUncachedPath) {
  const auto& corpus = small_intel();
  const std::function<std::unique_ptr<ml::Regressor>()> forest_factory =
      []() -> std::unique_ptr<ml::Regressor> {
    ml::ForestParams fp;
    fp.n_trees = 8;
    fp.tree.max_depth = 6;
    fp.seed = 3;
    return std::make_unique<ml::RandomForest>(fp);
  };
  const std::function<std::unique_ptr<ml::Regressor>()> gbt_factory =
      []() -> std::unique_ptr<ml::Regressor> {
    ml::GbtParams gp;
    gp.n_rounds = 6;
    return std::make_unique<ml::GradientBoosting>(gp);
  };
  for (const auto& factory : {forest_factory, gbt_factory}) {
    FewRunsConfig config;
    config.model_factory = factory;
    EvalOptions options;
    options.n_reconstruct = 200;
    const auto cached = evaluate_few_runs(corpus, config, options);
    EvalResult uncached;
    {
      ScopedNoCache pin;
      uncached = evaluate_few_runs(corpus, config, options);
    }
    ASSERT_EQ(cached.ks.size(), uncached.ks.size());
    for (std::size_t b = 0; b < cached.ks.size(); ++b) {
      EXPECT_EQ(cached.ks[b], uncached.ks[b]) << "fold " << b;
    }
  }
}

TEST(EvalCache, TrainRejectsMismatchedCache) {
  // A cache built for a different config (replicate count) must be refused
  // rather than silently producing different training rows.
  const auto& corpus = small_intel();
  FewRunsConfig cache_config;
  const auto cache = FewRunsEvalCache::build(corpus, cache_config);
  FewRunsConfig other = cache_config;
  other.train_replicates = cache_config.train_replicates + 1;
  FewRunsPredictor predictor(other);
  const std::vector<std::size_t> training = {0, 1, 2, 3};
  EXPECT_THROW(predictor.train(corpus, training, &cache),
               std::invalid_argument);
}

// With a cache, training benchmarks must be strictly ascending: a repeated
// benchmark would silently double its rows. kNN caches carry no presorted
// artifact, so the cache's own row gather has to refuse it.
TEST(EvalCache, TrainRejectsDuplicateBenchmarks) {
  const auto& amd = small_amd();
  const auto& intel = small_intel();
  const std::vector<std::size_t> training = {0, 1, 1, 2};
  FewRunsConfig few;
  few.train_replicates = 1;
  const auto few_cache = FewRunsEvalCache::build(intel, few);
  EXPECT_THROW(FewRunsPredictor(few).train(intel, training, &few_cache),
               std::invalid_argument);
  const CrossSystemConfig cross;
  const auto cross_cache = CrossSystemEvalCache::build(amd, intel, cross);
  EXPECT_THROW(
      CrossSystemPredictor(cross).train(amd, intel, training, &cross_cache),
      std::invalid_argument);
}

// The presorted artifact is built only for learners that read it: kNN (and
// ridge) folds never touch it.
TEST(EvalCache, KnnCacheHasNoPresort) {
  const auto& amd = small_amd();
  const auto& intel = small_intel();
  for (const ModelKind model : {ModelKind::kKnn, ModelKind::kRidge}) {
    FewRunsConfig few;
    few.model = model;
    EXPECT_EQ(FewRunsEvalCache::build(intel, few).presorted, nullptr)
        << to_string(model);
    CrossSystemConfig cross;
    cross.model = model;
    EXPECT_EQ(CrossSystemEvalCache::build(amd, intel, cross).presorted,
              nullptr)
        << to_string(model);
  }
}

// Tree learners, and any model_factory (whose learner is unknown), get the
// dataset-level orders of the full feature matrix.
TEST(EvalCache, TreeCacheHasPresort) {
  const auto& amd = small_amd();
  const auto& intel = small_intel();
  const auto expect_presort = [](const ml::Matrix& features,
                                 const ml::SortedColumns* presorted) {
    ASSERT_NE(presorted, nullptr);
    EXPECT_EQ(presorted->order, ml::SortedColumns::build(features).order);
  };
  const std::function<std::unique_ptr<ml::Regressor>()> knn_factory = [] {
    return std::make_unique<ml::KnnRegressor>();
  };
  for (const ModelKind model :
       {ModelKind::kRandomForest, ModelKind::kXgBoost, ModelKind::kKnn}) {
    FewRunsConfig few;
    few.model = model;
    CrossSystemConfig cross;
    cross.model = model;
    if (model == ModelKind::kKnn) {
      few.model_factory = knn_factory;
      cross.model_factory = knn_factory;
    }
    const auto few_cache = FewRunsEvalCache::build(intel, few);
    expect_presort(few_cache.features, few_cache.presorted.get());
    const auto cross_cache = CrossSystemEvalCache::build(amd, intel, cross);
    expect_presort(cross_cache.features, cross_cache.presorted.get());
  }
}

// FNV-1a over the little-endian bytes of each value's bit pattern,
// continuing from `h`.
std::uint64_t fnv1a(std::span<const double> values,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const double v : values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xFFU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// FNV-1a over a cache's feature matrix and then its targets.
std::uint64_t rows_digest(const ml::Matrix& features,
                          const std::vector<std::vector<double>>& targets) {
  std::uint64_t h = fnv1a(features.data());
  for (const auto& target : targets) h = fnv1a(target, h);
  return h;
}

// Pins every fold's KS bit for bit, in both use cases, for the kNN cells
// that logo_knn times: the scorer may change how it sorts and merges, never
// the scores it returns.
TEST(Evaluator, FoldKsDigests) {
  struct Expected {
    bool cross;
    ReprKind repr;
    std::uint64_t digest;
  };
  constexpr Expected kExpected[] = {
      {false, ReprKind::kHistogram, 0x12d4bfb803318931ULL},
      {false, ReprKind::kMaxEnt, 0x1f3a18f7758d3ff8ULL},
      {false, ReprKind::kPearson, 0x799891429348fa10ULL},
      {true, ReprKind::kHistogram, 0x7d770057fb1f4d43ULL},
      {true, ReprKind::kMaxEnt, 0xab2f70314cbe1c1cULL},
      {true, ReprKind::kPearson, 0x8711de8a13a4fff5ULL},
  };
  const EvalOptions options;  // 2,000 reconstructed draws per fold
  for (const auto& [cross, repr, digest] : kExpected) {
    EvalResult result;
    if (cross) {
      CrossSystemConfig config;
      config.repr = repr;
      config.model = ModelKind::kKnn;
      result = evaluate_cross_system(small_amd(), small_intel(), config,
                                     options);
    } else {
      FewRunsConfig config;
      config.repr = repr;
      config.model = ModelKind::kKnn;
      result = evaluate_few_runs(small_intel(), config, options);
    }
    ASSERT_EQ(result.ks.size(), 60u);
    EXPECT_EQ(fnv1a(result.ks), digest)
        << (cross ? "uc2 " : "uc1 ") << to_string(repr) << " 0x" << std::hex
        << fnv1a(result.ks);
  }
}

// With quality recording on, every fold is also scored with normalized W1
// and overlap, and their fold medians are recorded: pins those bits too.
TEST(Evaluator, RecordedQualityMedianBits) {
  obs::QualityRecorder::set_enabled(true);
  obs::QualityRecorder::instance().reset();
  EvalOptions options;
  options.quality_repr = "Histogram";
  options.quality_model = "kNN";
  FewRunsConfig few;
  few.repr = ReprKind::kHistogram;
  few.model = ModelKind::kKnn;
  evaluate_few_runs(small_intel(), few, options);
  CrossSystemConfig cross;
  cross.repr = ReprKind::kHistogram;
  cross.model = ModelKind::kKnn;
  evaluate_cross_system(small_amd(), small_intel(), cross, options);
  const auto cells = obs::QualityRecorder::instance().snapshot();
  obs::QualityRecorder::instance().reset();
  obs::QualityRecorder::set_enabled(false);
  // (systems, metric) in recording order.
  const std::uint64_t kExpected[] = {
      0x3fcb645a1cac0831ULL, 0x3fde65d4668dce83ULL, 0x3fe4189374bc6a82ULL,
      0x3fc7c6a7ef9db22eULL, 0x3fd8b936b138a7a0ULL, 0x3fe5666666666665ULL};
  ASSERT_EQ(cells.size(), std::size(kExpected));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_EQ(cells[i].samples.size(), 1u);
    const auto bits = std::bit_cast<std::uint64_t>(cells[i].samples[0]);
    EXPECT_EQ(bits, kExpected[i]) << cells[i].key.systems << " "
                                  << cells[i].key.metric << " 0x" << std::hex
                                  << bits;
  }
}

// Pins the training rows bit for bit: the row builders may change how they
// schedule the work, never the bytes they produce.
TEST(EvalCache, FewRunsRowDigests) {
  // PyMaxEnt and PearsonRnd share the moment encoding, hence one digest.
  struct Expected {
    ReprKind repr;
    std::uint64_t digest;
  };
  constexpr Expected kExpected[] = {
      {ReprKind::kHistogram, 0x2e8ca36921fe05b0ULL},
      {ReprKind::kMaxEnt, 0x002cf5e46a31fd97ULL},
      {ReprKind::kPearson, 0x002cf5e46a31fd97ULL},
      {ReprKind::kQuantile, 0x4eb055035bf93a5eULL},
  };
  for (const auto& [repr, digest] : kExpected) {
    FewRunsConfig config;
    config.repr = repr;
    const auto cache = FewRunsEvalCache::build(small_intel(), config);
    ASSERT_EQ(cache.features.rows(), 60u * config.train_replicates);
    EXPECT_EQ(rows_digest(cache.features, cache.targets), digest)
        << to_string(repr) << " 0x" << std::hex
        << rows_digest(cache.features, cache.targets);
  }
}

TEST(EvalCache, CrossSystemRowDigests) {
  struct Expected {
    ReprKind repr;
    std::uint64_t digest;
  };
  constexpr Expected kExpected[] = {
      {ReprKind::kHistogram, 0x0d9f9c0b71381b2dULL},
      {ReprKind::kMaxEnt, 0x23c3f38e3008a0f8ULL},
      {ReprKind::kPearson, 0x23c3f38e3008a0f8ULL},
      {ReprKind::kQuantile, 0xa29e9b9872fa88f2ULL},
  };
  for (const auto& [repr, digest] : kExpected) {
    CrossSystemConfig config;
    config.repr = repr;
    const auto cache =
        CrossSystemEvalCache::build(small_amd(), small_intel(), config);
    ASSERT_EQ(cache.features.rows(), 60u);
    EXPECT_EQ(rows_digest(cache.features, cache.targets), digest)
        << to_string(repr) << " 0x" << std::hex
        << rows_digest(cache.features, cache.targets);
  }
}

// Every held-out fold must draw the same samples from the fold cache's row
// as from features rebuilt from the runs: sample vectors, not only KS.
TEST(EvalCache, CrossSystemFoldSamplesMatchUncachedPath) {
  const auto& amd = small_amd();
  const auto& intel = small_intel();
  for (const ReprKind repr :
       {ReprKind::kHistogram, ReprKind::kMaxEnt, ReprKind::kPearson,
        ReprKind::kQuantile}) {
    CrossSystemConfig config;
    config.repr = repr;
    EvalOptions options;
    options.n_reconstruct = 300;
    const auto cache = CrossSystemEvalCache::build(amd, intel, config);
    for (std::size_t b = 0; b < amd.benchmarks.size(); b += 5) {
      const auto cached =
          predict_held_out_cross_system(amd, intel, b, config, options, &cache);
      const auto uncached =
          predict_held_out_cross_system(amd, intel, b, config, options);
      ASSERT_EQ(cached.size(), options.n_reconstruct);
      EXPECT_EQ(cached, uncached) << to_string(repr) << " fold " << b;
    }
  }
}

// A cross-system evaluation builds each source profile once: the cache's
// row per benchmark, and no second build in the fold that holds it out.
TEST(EvalCache, CrossSystemBuildsEachProfileOnce) {
  const auto& amd = small_amd();
  const auto& intel = small_intel();
  CrossSystemConfig config;
  EvalOptions options;
  options.n_reconstruct = 50;
  obs::set_mode(obs::Mode::kSummary);
  obs::Registry::global().reset_values();
  evaluate_cross_system(amd, intel, config, options);
  auto& reg = obs::Registry::global();
  const std::uint64_t builds = reg.counter("profile.builds").value();
  const std::uint64_t runs = reg.counter("profile.runs_aggregated").value();
  obs::set_mode(obs::Mode::kOff);
  EXPECT_EQ(builds, amd.benchmarks.size());
  EXPECT_EQ(runs, amd.benchmarks.size() * 200);
}

// A cache holds the targets (and, for use case 2, the encoded source
// distributions) of the representation it was built for. A trainer of
// another width must refuse it rather than fit the wrong targets.
TEST(EvalCache, FewRunsRejectsCacheOfAnotherRepr) {
  const auto& corpus = small_intel();
  const std::vector<std::size_t> training = {0, 1, 2, 3};
  FewRunsConfig histogram;
  histogram.repr = ReprKind::kHistogram;
  histogram.train_replicates = 1;
  const auto cache = FewRunsEvalCache::build(corpus, histogram);
  for (const ReprKind repr : {ReprKind::kPearson, ReprKind::kQuantile}) {
    FewRunsConfig other = histogram;
    other.repr = repr;
    EXPECT_THROW(FewRunsPredictor(other).train(corpus, training, &cache),
                 std::invalid_argument)
        << to_string(repr);
    EXPECT_THROW(predict_held_out_few_runs(corpus, 4, other, {}, &cache),
                 std::invalid_argument)
        << to_string(repr);
  }
  // Profile width: a means-only trainer against a full-profile cache.
  FewRunsConfig lean = histogram;
  lean.profile.include_higher_moments = false;
  EXPECT_THROW(FewRunsPredictor(lean).train(corpus, training, &cache),
               std::invalid_argument);
  // PyMaxEnt and PearsonRnd share the moment encoding, so one's cache
  // serves the other.
  FewRunsConfig pearson = histogram;
  pearson.repr = ReprKind::kPearson;
  const auto moment_cache = FewRunsEvalCache::build(corpus, pearson);
  FewRunsConfig maxent = pearson;
  maxent.repr = ReprKind::kMaxEnt;
  FewRunsPredictor served(maxent);
  served.train(corpus, training, &moment_cache);
  EXPECT_TRUE(served.trained());
}

TEST(EvalCache, CrossSystemRejectsCacheOfAnotherRepr) {
  const auto& amd = small_amd();
  const auto& intel = small_intel();
  const std::vector<std::size_t> training = {0, 1, 2, 3};
  CrossSystemConfig histogram;
  histogram.repr = ReprKind::kHistogram;
  const auto cache = CrossSystemEvalCache::build(amd, intel, histogram);
  for (const ReprKind repr : {ReprKind::kPearson, ReprKind::kQuantile}) {
    CrossSystemConfig other = histogram;
    other.repr = repr;
    EXPECT_THROW(
        CrossSystemPredictor(other).train(amd, intel, training, &cache),
        std::invalid_argument)
        << to_string(repr);
    EXPECT_THROW(
        predict_held_out_cross_system(amd, intel, 4, other, {}, &cache),
        std::invalid_argument)
        << to_string(repr);
  }
  CrossSystemConfig lean = histogram;
  lean.profile.include_higher_moments = false;
  EXPECT_THROW(CrossSystemPredictor(lean).train(amd, intel, training, &cache),
               std::invalid_argument);
  CrossSystemConfig pearson;
  pearson.repr = ReprKind::kPearson;
  const auto moment_cache = CrossSystemEvalCache::build(amd, intel, pearson);
  CrossSystemConfig maxent = pearson;
  maxent.repr = ReprKind::kMaxEnt;
  CrossSystemPredictor served(maxent);
  served.train(amd, intel, training, &moment_cache);
  EXPECT_TRUE(served.trained());
}

}  // namespace
}  // namespace varpred::core
