// Tests for the prediction-quality telemetry stack: the overlap score, the
// recorder, document round trips (including the non-finite JSON
// sentinels), the ledger, the paper-reference comparison, and — the
// acceptance criteria of the gate
// itself — diff_cell / diff_quality verdicts: identical pipelines re-run
// under different seeds must read `unchanged`, a +5% prediction bias must
// read `degraded`.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/json.hpp"
#include "obs/quality.hpp"
#include "rngdist/samplers.hpp"
#include "stats/overlap.hpp"

namespace varpred {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Switches the global recorder on for one test and restores the library
/// default (off) afterwards, leaving no cells behind.
class RecorderGuard {
 public:
  RecorderGuard() {
    obs::QualityRecorder::set_enabled(true);
    obs::QualityRecorder::instance().reset();
  }
  ~RecorderGuard() {
    obs::QualityRecorder::instance().reset();
    obs::QualityRecorder::set_enabled(false);
  }
};

TEST(Overlap, IdenticalSamplesOverlapFully) {
  std::vector<double> a;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) a.push_back(rngdist::lognormal(rng, 0.0, 0.2));
  EXPECT_NEAR(stats::overlap_coefficient(a, a), 1.0, 1e-12);
}

TEST(Overlap, DisjointSupportsDoNotOverlap) {
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 100; ++i) {
    a.push_back(0.0 + i * 0.001);
    b.push_back(100.0 + i * 0.001);
  }
  EXPECT_LT(stats::overlap_coefficient(a, b), 0.05);
}

TEST(Overlap, SameLawDrawsOverlapSubstantially) {
  Rng rng(11);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 1000; ++i) a.push_back(rngdist::lognormal(rng, 0.0, 0.1));
  for (int i = 0; i < 1000; ++i) b.push_back(rngdist::lognormal(rng, 0.0, 0.1));
  const double ovl = stats::overlap_coefficient(a, b);
  EXPECT_GT(ovl, 0.8);
  EXPECT_LE(ovl, 1.0);
}

TEST(Overlap, EmptyAndDegenerateInputs) {
  const std::vector<double> empty;
  const std::vector<double> point = {1.0, 1.0, 1.0};
  EXPECT_EQ(stats::overlap_coefficient(empty, point), 0.0);
  EXPECT_EQ(stats::overlap_coefficient(point, empty), 0.0);
  // Both samples the same point mass: degenerate pooled range, full overlap.
  EXPECT_EQ(stats::overlap_coefficient(point, point), 1.0);
}

// Neither a NaN nor an infinity has a bin: casting (x - lo) / width to an
// index would be undefined, so the score refuses both.
TEST(Overlap, RejectsNonFiniteValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> clean = {1.0, 2.0, 3.0};
  std::vector<double> dirty(500, 1.0);
  dirty[7] = nan;
  EXPECT_THROW(stats::overlap_coefficient(clean, {{2.0, nan}}),
               std::invalid_argument);
  EXPECT_THROW(stats::overlap_coefficient(dirty, clean),
               std::invalid_argument);
  EXPECT_THROW(stats::overlap_coefficient(clean, {{2.0, kInf}}),
               std::invalid_argument);
  EXPECT_THROW(stats::overlap_coefficient({{-kInf, 1.0}}, clean),
               std::invalid_argument);
}

TEST(Quality, MetricOrientation) {
  EXPECT_TRUE(obs::lower_is_better("ks"));
  EXPECT_TRUE(obs::lower_is_better("wasserstein1_normalized"));
  EXPECT_FALSE(obs::lower_is_better("overlap"));
}

TEST(QualityRecorder, DisabledRecorderIgnoresRecords) {
  obs::QualityRecorder::set_enabled(false);
  obs::QualityRecorder::instance().reset();
  obs::QualityRecorder::instance().record(
      {"app", "sys", "repr", "model", "ks", ""}, 0.5);
  EXPECT_TRUE(obs::QualityRecorder::instance().snapshot().empty());
}

TEST(QualityRecorder, AccumulatesSamplesPerKeyInOrder) {
  RecorderGuard guard;
  auto& rec = obs::QualityRecorder::instance();
  const obs::QualityCellKey a{"app", "sys", "r", "m", "ks", ""};
  const obs::QualityCellKey b{"app", "sys", "r", "m", "overlap", ""};
  rec.record(a, 0.1);
  rec.record(b, 0.9);
  rec.record(a, 0.2);
  const auto cells = rec.snapshot();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].key, a);
  EXPECT_EQ(cells[0].samples, (std::vector<double>{0.1, 0.2}));
  EXPECT_EQ(cells[1].key, b);
  EXPECT_EQ(cells[1].samples, (std::vector<double>{0.9}));
}

TEST(QualityRecorder, RecordPredictionScoresEmitsAllThreeMetrics) {
  RecorderGuard guard;
  Rng rng(3);
  std::vector<double> measured;
  std::vector<double> predicted;
  for (int i = 0; i < 400; ++i) {
    measured.push_back(rngdist::lognormal(rng, 0.0, 0.1));
    predicted.push_back(rngdist::lognormal(rng, 0.0, 0.1));
  }
  obs::record_prediction_scores({"bt", "intel", "PearsonRnd", "kNN", "", ""},
                                measured, predicted);
  const auto cells = obs::QualityRecorder::instance().snapshot();
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].key.metric, "ks");
  EXPECT_EQ(cells[1].key.metric, "wasserstein1_normalized");
  EXPECT_EQ(cells[2].key.metric, "overlap");
  // Same-law draws: small distances, large overlap.
  EXPECT_LT(cells[0].samples[0], 0.2);
  EXPECT_GT(cells[2].samples[0], 0.7);
}

obs::RunDocument make_document(
    const std::string& bench,
    std::vector<obs::QualityCell> cells) {
  obs::RunDocument doc;
  doc.provenance.bench = bench;
  doc.provenance.git = "deadbeef";
  doc.provenance.hostname = "testhost";
  doc.provenance.timestamp = "2026-01-01T00:00:00Z";
  doc.provenance.obs_mode = "off";
  doc.provenance.seed = 7;
  doc.provenance.runs = 100;
  doc.provenance.workers = 4;
  doc.provenance.repeat = cells.empty() ? 1 : cells[0].samples.size();
  doc.cells = std::move(cells);
  return doc;
}

TEST(QualityDocument, JsonRoundTripPreservesKeysAndSamples) {
  const obs::RunDocument doc = make_document(
      "bench_x",
      {{{"376.kdtree", "amd->intel", "Histogram", "RF", "ks", "probes=8"},
        {0.125, 0.25, 0.5}},
       {{"*", "intel", "PyMaxEnt", "kNN", "wasserstein1_normalized", ""},
        {0.5, kInf, -kInf, std::nan("")}}});
  const std::string text = obs::run_document_json(doc);
  const obs::RunDocument back =
      obs::parse_run_document(obs::json::parse(text));

  EXPECT_EQ(back.schema_version, doc.schema_version);
  EXPECT_EQ(back.provenance.bench, "bench_x");
  EXPECT_EQ(back.provenance.seed, 7u);
  EXPECT_EQ(back.provenance.repeat, 3u);
  ASSERT_EQ(back.cells.size(), 2u);
  EXPECT_EQ(back.cells[0].key, doc.cells[0].key);
  EXPECT_EQ(back.cells[0].samples, doc.cells[0].samples);
  // Non-finite samples survive as the string sentinels.
  ASSERT_EQ(back.cells[1].samples.size(), 4u);
  EXPECT_EQ(back.cells[1].samples[0], 0.5);
  EXPECT_EQ(back.cells[1].samples[1], kInf);
  EXPECT_EQ(back.cells[1].samples[2], -kInf);
  EXPECT_TRUE(std::isnan(back.cells[1].samples[3]));
}

// Pre-v5 quality lines go through the ledger reader's lenient rules; each
// of these is rejected there, and by the strict reader.
TEST(QualityDocument, ParseRejectsMalformedDocuments) {
  for (const char* doc :
       {"[1,2]",
        "{\"cells\":[]}",  // no bench
        "{\"bench\":\"b\"}",  // no cells
        "{\"bench\":\"b\",\"cells\":[{\"samples\":[0.1]}]}",  // no metric
        // non-sentinel string sample
        "{\"bench\":\"b\",\"cells\":[{\"metric\":\"ks\","
        "\"samples\":[\"bogus\"]}]}"}) {
    EXPECT_THROW(obs::parse_ledger_line(obs::json::parse(doc)),
                 std::invalid_argument)
        << doc;
    EXPECT_THROW(obs::parse_run_document(obs::json::parse(doc)),
                 std::invalid_argument)
        << doc;
  }
}

// Property test for the json layer underneath: make_number/numeric_value
// round-trip arbitrary doubles, finite and non-finite alike, through
// dump+parse.
TEST(QualityJson, NonFiniteNumbersRoundTripThroughDumpParse) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    double x;
    switch (trial % 5) {
      case 0: x = kInf; break;
      case 1: x = -kInf; break;
      case 2: x = std::nan(""); break;
      default:
        x = (rng.uniform() - 0.5) * 2e6;
        break;
    }
    obs::json::Value root;
    root.type = obs::json::Value::Type::kArray;
    root.array.push_back(obs::json::make_number(x));
    const obs::json::Value back = obs::json::parse(obs::json::dump(root));
    ASSERT_TRUE(back.is_array());
    double y = 0.0;
    ASSERT_TRUE(back.array[0].numeric_value(y)) << "trial " << trial;
    if (std::isnan(x)) {
      EXPECT_TRUE(std::isnan(y));
    } else if (std::isinf(x)) {
      EXPECT_EQ(y, x);
    } else {
      EXPECT_NEAR(y, x, std::fabs(x) * 1e-12);
    }
  }
}

TEST(Ledger, QualityDocumentsRoundTripAndLatestPerBench) {
  const std::string path =
      ::testing::TempDir() + "/quality_ledger_test.jsonl";
  std::remove(path.c_str());
  auto doc1 = make_document(
      "bench_a", {{{"*", "intel", "r", "m", "ks", ""}, {0.2, 0.21}}});
  auto doc2 = make_document(
      "bench_a", {{{"*", "intel", "r", "m", "ks", "probes=8"}, {0.22, kInf}}});
  doc2.provenance.git = "cafef00d";
  auto other = make_document(
      "bench_b", {{{"*", "amd", "r", "m", "ks", ""}, {0.4}}});
  for (const obs::RunDocument* doc : {&doc1, &other, &doc2}) {
    obs::append_ledger(path, obs::json::parse(obs::run_document_json(*doc)));
  }

  std::vector<obs::RunDocument> docs;
  obs::for_each_document(path, [&](const obs::json::Value& doc) {
    docs.push_back(obs::parse_ledger_line(doc));
  });
  ASSERT_EQ(docs.size(), 3u);
  const auto latest = obs::latest_per_bench(docs);
  ASSERT_EQ(latest.size(), 2u);
  const obs::RunDocument& got = *latest[0];
  EXPECT_EQ(got.provenance.bench, "bench_a");
  EXPECT_EQ(got.provenance.git, "cafef00d");
  EXPECT_EQ(got.provenance.hostname, "testhost");
  EXPECT_EQ(got.provenance.seed, 7u);
  EXPECT_EQ(got.provenance.workers, 4u);
  EXPECT_EQ(got.provenance.repeat, 2u);
  ASSERT_EQ(got.cells.size(), 1u);
  EXPECT_EQ(got.cells[0].key, doc2.cells[0].key);
  EXPECT_EQ(got.cells[0].samples, (std::vector<double>{0.22, kInf}));
  EXPECT_EQ(latest[1]->provenance.bench, "bench_b");
  std::remove(path.c_str());
}

obs::QualityDiffConfig test_config() {
  obs::QualityDiffConfig config;
  config.bootstrap_replicates = 1000;
  return config;
}

const obs::QualityCellKey kKsKey{"*", "intel", "r", "m", "ks", ""};
const obs::QualityCellKey kOvlKey{"*", "intel", "r", "m", "overlap", ""};
const obs::QualityCellKey kW1Key{"*", "intel", "r", "m",
                                 "wasserstein1_normalized", ""};

TEST(QualityDiff, IdenticalSamplesReadUnchanged) {
  const std::vector<double> s = {0.21, 0.23, 0.22, 0.24};
  const auto d = obs::diff_cell(kKsKey, s, s, test_config());
  EXPECT_EQ(d.verdict, obs::Verdict::kUnchanged);
  EXPECT_EQ(d.delta, 0.0);
}

TEST(QualityDiff, ClearShiftReadsDegradedByOrientation) {
  const std::vector<double> base = {0.20, 0.21, 0.22, 0.21};
  const std::vector<double> worse = {0.30, 0.31, 0.32, 0.31};
  // KS is lower-better: +0.1 is degradation...
  auto d = obs::diff_cell(kKsKey, base, worse, test_config());
  EXPECT_EQ(d.verdict, obs::Verdict::kRegressed);
  EXPECT_GT(d.worse_lo, test_config().tolerance);
  // ...and the reverse direction is improvement.
  d = obs::diff_cell(kKsKey, worse, base, test_config());
  EXPECT_EQ(d.verdict, obs::Verdict::kImproved);
  // Overlap is higher-better: the same +0.1 shift is an improvement.
  d = obs::diff_cell(kOvlKey, base, worse, test_config());
  EXPECT_EQ(d.verdict, obs::Verdict::kImproved);
  d = obs::diff_cell(kOvlKey, worse, base, test_config());
  EXPECT_EQ(d.verdict, obs::Verdict::kRegressed);
}

TEST(QualityDiff, SingleSamplesUsePointComparison) {
  const std::vector<double> base = {0.20};
  const std::vector<double> near = {0.21};
  const std::vector<double> far = {0.30};
  auto d = obs::diff_cell(kKsKey, base, near, test_config());
  EXPECT_TRUE(d.point_comparison);
  EXPECT_EQ(d.verdict, obs::Verdict::kUnchanged);
  d = obs::diff_cell(kKsKey, base, far, test_config());
  EXPECT_TRUE(d.point_comparison);
  EXPECT_EQ(d.verdict, obs::Verdict::kRegressed);
}

TEST(QualityDiff, NonFiniteSamplesComparedByCount) {
  const std::vector<double> finite = {0.5, 0.5};
  const std::vector<double> with_inf = {0.5, kInf};
  const std::vector<double> all_inf = {kInf, kInf};
  const std::vector<double> with_nan = {0.2, std::nan("")};
  const std::vector<double> plain = {0.2, 0.2};
  // Candidate gains a bad-direction infinity (w1n sentinel): degraded.
  auto d = obs::diff_cell(kW1Key, finite, with_inf, test_config());
  EXPECT_EQ(d.verdict, obs::Verdict::kRegressed);
  // Candidate loses it: improved.
  d = obs::diff_cell(kW1Key, with_inf, finite, test_config());
  EXPECT_EQ(d.verdict, obs::Verdict::kImproved);
  // Equal counts on both sides: the finite subsets decide.
  d = obs::diff_cell(kW1Key, with_inf, with_inf, test_config());
  EXPECT_EQ(d.verdict, obs::Verdict::kUnchanged);
  // Everything pinned at the sentinel on both sides: unchanged.
  d = obs::diff_cell(kW1Key, all_inf, all_inf, test_config());
  EXPECT_EQ(d.verdict, obs::Verdict::kUnchanged);
  // A NaN anywhere is a pipeline bug, never a drift direction.
  d = obs::diff_cell(kKsKey, plain, with_nan, test_config());
  EXPECT_EQ(d.verdict, obs::Verdict::kInconclusive);
}

TEST(QualityDiff, MissingCellsReadInconclusive) {
  const auto baseline = make_document(
      "bench_a", {{kKsKey, {0.2, 0.21}}, {kOvlKey, {0.8, 0.81}}});
  const auto candidate = make_document(
      "bench_a", {{kKsKey, {0.2, 0.21}}, {kW1Key, {0.5, 0.52}}});
  const auto diff = obs::diff_quality(baseline, candidate, test_config());
  ASSERT_EQ(diff.cells.size(), 3u);
  EXPECT_EQ(diff.verdict, obs::Verdict::kInconclusive);
  std::size_t inconclusive = 0;
  for (const auto& cell : diff.cells) {
    if (cell.verdict == obs::Verdict::kInconclusive) {
      ++inconclusive;
      EXPECT_FALSE(cell.note.empty());
    }
  }
  EXPECT_EQ(inconclusive, 2u);
}

TEST(QualityDiff, VerdictIndependentOfCellOrder) {
  // The per-cell bootstrap stream is seeded from the cell id, so shuffling
  // document order cannot flip a verdict.
  Rng rng(5);
  std::vector<double> base;
  std::vector<double> cand;
  for (int i = 0; i < 5; ++i) {
    base.push_back(0.22 + 0.01 * rng.uniform());
    cand.push_back(0.22 + 0.01 * rng.uniform());
  }
  const auto alone = obs::diff_cell(kKsKey, base, cand, test_config());
  const auto doc_base = make_document(
      "b", {{kOvlKey, {0.8, 0.81, 0.79}}, {kKsKey, base}});
  const auto doc_cand = make_document(
      "b", {{kKsKey, cand}, {kOvlKey, {0.8, 0.81, 0.79}}});
  const auto diff = obs::diff_quality(doc_base, doc_cand, test_config());
  for (const auto& cell : diff.cells) {
    if (cell.key == kKsKey) {
      EXPECT_EQ(cell.verdict, alone.verdict);
      EXPECT_EQ(cell.worse_lo, alone.worse_lo);
      EXPECT_EQ(cell.worse_hi, alone.worse_hi);
    }
  }
}

/// Seeded synthetic prediction pipeline: "measures" a lognormal truth and
/// "predicts" draws from the same law (bias=1.0) or a biased one. Records
/// through the real recorder so the e2e covers record -> snapshot ->
/// document -> diff.
obs::RunDocument pipeline_document(std::uint64_t seed, double bias,
                                       std::size_t repetitions) {
  RecorderGuard guard;
  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    Rng rng(seed_combine(seed, rep));
    std::vector<double> measured;
    std::vector<double> predicted;
    for (int i = 0; i < 600; ++i) {
      measured.push_back(rngdist::lognormal(rng, 0.0, 0.05));
      predicted.push_back(bias * rngdist::lognormal(rng, 0.0, 0.05));
    }
    obs::record_prediction_scores(
        {"synthetic", "intel", "PearsonRnd", "kNN", "", ""}, measured,
        predicted);
  }
  auto doc = make_document("bench_e2e",
                           obs::QualityRecorder::instance().snapshot());
  doc.provenance.seed = seed;
  return doc;
}

TEST(QualityGateE2E, SameSeedReadsUnchanged) {
  const auto baseline = pipeline_document(1001, 1.0, 4);
  const auto diff = obs::diff_quality(baseline, baseline, test_config());
  EXPECT_EQ(diff.verdict, obs::Verdict::kUnchanged);
}

TEST(QualityGateE2E, DifferentSeedSamePipelineReadsUnchanged) {
  // The gate must not fire on seed noise: an unchanged pipeline re-run
  // under fresh seeds stays within tolerance.
  const auto baseline = pipeline_document(1001, 1.0, 4);
  const auto candidate = pipeline_document(2002, 1.0, 4);
  const auto diff = obs::diff_quality(baseline, candidate, test_config());
  EXPECT_EQ(diff.verdict, obs::Verdict::kUnchanged)
      << obs::quality_markdown_report({&diff, 1}, test_config());
}

TEST(QualityGateE2E, FivePercentPredictionBiasReadsDegraded) {
  // A +5% multiplicative bias on every prediction shifts the predicted
  // distribution off the truth; all three metrics must catch it and the
  // overall verdict must be degraded.
  const auto baseline = pipeline_document(1001, 1.0, 4);
  const auto candidate = pipeline_document(2002, 1.05, 4);
  const auto diff = obs::diff_quality(baseline, candidate, test_config());
  EXPECT_EQ(diff.verdict, obs::Verdict::kRegressed)
      << obs::quality_markdown_report({&diff, 1}, test_config());
  for (const auto& cell : diff.cells) {
    EXPECT_EQ(cell.verdict, obs::Verdict::kRegressed) << cell.key.id();
  }
}

TEST(QualityReports, MarkdownAndJsonCarryVerdicts) {
  const auto baseline = pipeline_document(1001, 1.0, 3);
  const auto candidate = pipeline_document(2002, 1.05, 3);
  const auto diff = obs::diff_quality(baseline, candidate, test_config());
  const std::string md =
      obs::quality_markdown_report({&diff, 1}, test_config());
  EXPECT_NE(md.find("bench_e2e"), std::string::npos);
  EXPECT_NE(md.find("degraded"), std::string::npos);
  EXPECT_NE(md.find("tolerance"), std::string::npos);

  const obs::json::Value benches = obs::quality_json_report({&diff, 1});
  ASSERT_TRUE(benches.is_array());
  ASSERT_EQ(benches.array.size(), 1u);
  EXPECT_EQ(benches.array[0].find("bench")->str, "bench_e2e");
  EXPECT_EQ(benches.array[0].find("overall")->str, "degraded");
}

TEST(QualityReference, TwoLineLedgerComparesEachCellOnceAgainstLatest) {
  // An append-only reference ledger holding two entries of one bench used
  // to yield every matching cell twice, stamped with whichever entry was
  // scanned last.
  auto old_ref = make_document("paper_reference", {{kKsKey, {0.5}}});
  old_ref.provenance.git = "first";
  auto new_ref = make_document("paper_reference", {{kKsKey, {0.241}}});
  new_ref.provenance.git = "published";
  const std::vector<obs::RunDocument> reference{old_ref, new_ref};
  const std::vector<obs::RunDocument> candidates{make_document(
      "cli_evaluate", {{kKsKey, {0.23, 0.24}}, {kOvlKey, {0.6, 0.61}}})};

  const auto diffs =
      obs::diff_against_reference(reference, candidates, test_config());
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].bench, "cli_evaluate vs paper_reference");
  EXPECT_EQ(diffs[0].baseline.git, "published");
  ASSERT_EQ(diffs[0].cells.size(), 1u) << "only the shared cell, once";
  EXPECT_EQ(diffs[0].cells[0].key, kKsKey);
  EXPECT_EQ(diffs[0].cells[0].baseline_mean, 0.241);
  EXPECT_EQ(diffs[0].verdict, obs::Verdict::kUnchanged);

  // No shared cell, no diff.
  const std::vector<obs::RunDocument> unrelated{
      make_document("other", {{kW1Key, {0.5}}})};
  EXPECT_TRUE(
      obs::diff_against_reference(reference, unrelated, test_config())
          .empty());
}

}  // namespace
}  // namespace varpred
