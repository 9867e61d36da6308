// Tests for the regression-detection stack: telemetry parsing (one stage
// shape: a numeric sample vector), bench::Run's recorded series,
// provenance validation, the JSONL ledger (round trip, errors,
// and the checked-in ledgers under bench/baselines/), and — the acceptance
// criteria of the detector itself — bench_diff verdicts on seeded
// synthetic timing distributions: two independent draws from the same
// distribution must read `unchanged`, a 2x slowdown must read `regressed`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/rng.hpp"
#include "obs/ledger.hpp"
#include "obs/quality.hpp"
#include "obs/regression.hpp"
#include "obs/telemetry.hpp"
#include "rngdist/samplers.hpp"

namespace varpred {
namespace {

/// Plausible stage timings: lognormal around ~100 ms with mild spread,
/// scaled by `factor` (2.0 = injected 2x slowdown).
std::vector<double> timing_draw(std::uint64_t seed, std::size_t n,
                                double factor = 1.0) {
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(factor * rngdist::lognormal(rng, std::log(0.1), 0.05));
  }
  return out;
}

obs::DiffConfig test_config() {
  obs::DiffConfig config;
  config.bootstrap_replicates = 1000;
  return config;
}

TEST(BenchDiff, SameDistributionReadsUnchanged) {
  const auto baseline = timing_draw(101, 24);
  const auto candidate = timing_draw(202, 24);  // independent, same law
  const auto d =
      obs::diff_stage("stage", baseline, candidate, test_config());
  EXPECT_EQ(d.verdict, obs::Verdict::kUnchanged)
      << "p=" << d.ks_pvalue << " w1n=" << d.w1_normalized;
  EXPECT_GE(d.ks_pvalue, 0.01);
}

TEST(BenchDiff, InjectedTwoXSlowdownReadsRegressed) {
  const auto baseline = timing_draw(101, 24);
  const auto candidate = timing_draw(303, 24, 2.0);
  const auto d =
      obs::diff_stage("stage", baseline, candidate, test_config());
  EXPECT_EQ(d.verdict, obs::Verdict::kRegressed);
  EXPECT_LT(d.ks_pvalue, 1e-6);
  // The relative median shift of a 2x slowdown is ~+100%, and its CI
  // should bracket that.
  EXPECT_NEAR(d.shift, 1.0, 0.15);
  EXPECT_GT(d.shift_lo, 0.5);
  EXPECT_LT(d.shift_hi, 1.5);
}

TEST(BenchDiff, SpeedupReadsImproved) {
  const auto baseline = timing_draw(101, 24);
  const auto candidate = timing_draw(404, 24, 0.5);
  const auto d =
      obs::diff_stage("stage", baseline, candidate, test_config());
  EXPECT_EQ(d.verdict, obs::Verdict::kImproved);
  EXPECT_LT(d.shift_hi, 0.0);
}

TEST(BenchDiff, TooFewSamplesReadsInconclusive) {
  const auto baseline = timing_draw(101, 24);
  const auto candidate = timing_draw(202, 3);
  const auto d =
      obs::diff_stage("stage", baseline, candidate, test_config());
  EXPECT_EQ(d.verdict, obs::Verdict::kInconclusive);
  EXPECT_FALSE(d.note.empty());
}

TEST(BenchDiff, ShapeChangeWithoutMedianShiftReadsInconclusive) {
  // Same median, much wider spread: KS + W1 flag the change, but the
  // median-shift CI straddles zero, so the direction is indeterminate.
  Rng rng(7);
  std::vector<double> baseline;
  std::vector<double> candidate;
  for (std::size_t i = 0; i < 40; ++i) {
    baseline.push_back(0.1 + rng.uniform(-0.002, 0.002));
    candidate.push_back(0.1 + rng.uniform(-0.04, 0.04));
  }
  const auto d =
      obs::diff_stage("stage", baseline, candidate, test_config());
  EXPECT_EQ(d.verdict, obs::Verdict::kInconclusive)
      << "p=" << d.ks_pvalue << " w1n=" << d.w1_normalized
      << " ci=[" << d.shift_lo << ", " << d.shift_hi << "]";
}

TEST(BenchDiff, VerdictsAreDeterministic) {
  const auto baseline = timing_draw(101, 20);
  const auto candidate = timing_draw(202, 20, 1.2);
  const auto a = obs::diff_stage("s", baseline, candidate, test_config());
  const auto b = obs::diff_stage("s", baseline, candidate, test_config());
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.shift_lo, b.shift_lo);
  EXPECT_EQ(a.shift_hi, b.shift_hi);
}

TEST(BenchDiff, TailColumnsAreAdvisoryAndExact) {
  // Candidate = exactly 2x the same draw, so every quantile doubles and
  // the relative tail shifts are exactly +100%.
  const auto baseline = timing_draw(101, 24);
  const auto candidate = timing_draw(101, 24, 2.0);
  const auto d =
      obs::diff_stage("stage", baseline, candidate, test_config());
  ASSERT_TRUE(d.has_tails);
  EXPECT_GT(d.baseline_p50, 0.0);
  EXPECT_GT(d.baseline_p99, d.baseline_p50 * 0.5);
  EXPECT_DOUBLE_EQ(d.candidate_p50, 2.0 * d.baseline_p50);
  EXPECT_DOUBLE_EQ(d.p50_shift, 1.0);
  EXPECT_DOUBLE_EQ(d.p99_shift, 1.0);

  // Tails are filled even when the verdict path bails out early on sample
  // size — and they never affect the verdict itself.
  const auto tiny = timing_draw(202, 3, 2.0);
  const auto small = obs::diff_stage("stage", baseline, tiny, test_config());
  EXPECT_EQ(small.verdict, obs::Verdict::kInconclusive);
  ASSERT_TRUE(small.has_tails);
  EXPECT_GT(small.p50_shift, 0.5);

  const auto same = obs::diff_stage("stage", baseline,
                                    timing_draw(202, 24), test_config());
  EXPECT_EQ(same.verdict, obs::Verdict::kUnchanged)
      << "tail columns must not gate";
  EXPECT_TRUE(same.has_tails);

  // Both report sinks carry the advisory columns.
  obs::RunDiff run;
  run.bench = "tails_bench";
  run.stages.push_back(d);
  run.verdict = obs::overall_verdict(run.stages);
  const std::vector<obs::RunDiff> runs{run};
  const std::string md = obs::markdown_report(runs, test_config());
  EXPECT_NE(md.find("Δp50"), std::string::npos) << md;
  EXPECT_NE(md.find("Δp99"), std::string::npos);
  EXPECT_NE(md.find("advisory"), std::string::npos)
      << "footer must say tails never gate";
  const std::string js = obs::json::dump(obs::json_report(runs));
  EXPECT_NE(js.find("\"p50_shift\":"), std::string::npos) << js;
  EXPECT_NE(js.find("\"baseline_p99\":"), std::string::npos);
}

TEST(BenchDiff, TailBlowupAloneNeverFlipsTheGateVerdict) {
  // A single extreme outlier explodes the advisory p99 column while the
  // body of the distribution is untouched: the gate verdict must stay
  // `unchanged`, because tail columns are informational only.
  const auto baseline = timing_draw(101, 24);
  auto candidate = timing_draw(202, 24);
  *std::max_element(candidate.begin(), candidate.end()) *= 5.0;
  const auto d =
      obs::diff_stage("stage", baseline, candidate, test_config());
  ASSERT_TRUE(d.has_tails);
  EXPECT_GT(d.p99_shift, 1.0) << "the outlier must show up in Δp99";
  EXPECT_EQ(d.verdict, obs::Verdict::kUnchanged)
      << "p=" << d.ks_pvalue << " w1n=" << d.w1_normalized
      << " Δp99=" << d.p99_shift;
}

// ---------------------------------------------------------------------------
// Telemetry parsing: every stage is a numeric sample vector.

TEST(Telemetry, ParsesV2Document) {
  const char* doc = R"({
    "schema_version": 2, "bench": "demo", "git": "abc", "hostname": "m1",
    "timestamp": "2026-08-05T10:00:00Z", "seed": 7, "runs": 300,
    "repeat": 3, "fast": true, "workers": 4, "obs_mode": "off",
    "wall_seconds": 1.5,
    "stages": [{"name": "corpus", "seconds": 1.2,
                "samples": [0.4, 0.4, 0.4], "mean": 0.4, "stddev": 0.0,
                "min": 0.4, "max": 0.4}]
  })";
  const auto t = obs::parse_bench_telemetry(obs::json::parse(doc));
  EXPECT_EQ(t.schema_version, 2);
  EXPECT_EQ(t.provenance.bench, "demo");
  EXPECT_EQ(t.provenance.hostname, "m1");
  EXPECT_EQ(t.provenance.repeat, 3u);
  ASSERT_EQ(t.stages.size(), 1u);
  EXPECT_EQ(t.stages[0].samples, (std::vector<double>{0.4, 0.4, 0.4}));
}

TEST(Telemetry, RejectsV1DocumentWithoutSamples) {
  // v1 stages carried one "seconds" point; no ledger line or fixture is v1
  // any more, and a point is not a distribution to compare.
  const char* doc = R"({
    "bench": "legacy", "git": "abc", "seed": 7, "runs": 1000,
    "fast": false, "workers": 2, "obs_mode": "off", "wall_seconds": 2.0,
    "stages": [{"name": "corpus", "seconds": 1.25},
               {"name": "predict", "seconds": 0.75}]
  })";
  EXPECT_THROW(obs::parse_bench_telemetry(obs::json::parse(doc)),
               std::invalid_argument);
}

TEST(Telemetry, RejectsEmptyOrNonNumericSamples) {
  for (const char* samples : {R"([])", R"("0.1")", R"([0.1, "x"])",
                              R"([0.1, null])", R"({"a": 0.1})"}) {
    const std::string doc =
        std::string(R"({"bench":"b","stages":[{"name":"s","samples":)") +
        samples + "}]}";
    EXPECT_THROW(obs::parse_bench_telemetry(obs::json::parse(doc)),
                 std::invalid_argument)
        << doc;
  }
}

TEST(Telemetry, RejectsDocumentsWithoutBenchOrStages) {
  EXPECT_THROW(obs::parse_bench_telemetry(obs::json::parse("{}")),
               std::invalid_argument);
  EXPECT_THROW(
      obs::parse_bench_telemetry(obs::json::parse(R"({"bench":"x"})")),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// bench::Run: recorded series sit beside timed stages in the document.

TEST(BenchRun, RecordAddsOneSamplePerRepetitionBesideTimedStages) {
  bench::HarnessArgs args;
  args.repeat = 3;
  args.obs_out = ::testing::TempDir() + "BENCH_record_test.json";
  args.quality_out = ::testing::TempDir() + "QUALITY_record_test.json";
  double rep = 0.0;
  bench::run_repeated("record_test", args, [&](bench::Run& run) {
    run.stage("timed");
    run.record("lat.p50_s", 0.0001 * (rep + 1.0));
    run.record("lat.p99_s", 0.0003 * (rep + 1.0));
    rep += 1.0;
  });

  const auto t =
      obs::parse_bench_telemetry(obs::json::parse_file(args.obs_out));
  EXPECT_EQ(t.provenance.bench, "record_test");
  EXPECT_EQ(t.provenance.repeat, 3u);
  ASSERT_EQ(t.stages.size(), 3u);
  // Series appear in first-touch order; "timed" closes at the next
  // repetition boundary, after both records of its repetition.
  EXPECT_EQ(t.stages[0].name, "lat.p50_s");
  EXPECT_EQ(t.stages[0].samples,
            (std::vector<double>{0.0001 * 1.0, 0.0001 * 2.0, 0.0001 * 3.0}));
  EXPECT_EQ(t.stages[1].name, "lat.p99_s");
  EXPECT_EQ(t.stages[1].samples,
            (std::vector<double>{0.0003 * 1.0, 0.0003 * 2.0, 0.0003 * 3.0}));
  EXPECT_EQ(t.stages[2].name, "timed");
  EXPECT_EQ(t.stages[2].samples.size(), 3u);
  std::remove(args.obs_out.c_str());
  std::remove(args.quality_out.c_str());
}

TEST(BenchRun, EmitsSchemaV4StagesWithExactlyTheSummaryKeys) {
  bench::HarnessArgs args;
  args.repeat = 4;
  args.obs_out = ::testing::TempDir() + "BENCH_v4_keys_test.json";
  args.quality_out = ::testing::TempDir() + "QUALITY_v4_keys_test.json";
  double rep = 0.0;
  bench::run_repeated("v4_keys_test", args, [&](bench::Run& run) {
    rep += 1.0;
    run.record("lat.p50_s", 0.001 * rep);
  });

  const obs::json::Value doc = obs::json::parse_file(args.obs_out);
  ASSERT_NE(doc.find("schema_version"), nullptr);
  EXPECT_EQ(doc.find("schema_version")->num, 4.0);
  const obs::json::Value* stages = doc.find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->array.size(), 1u);
  const obs::json::Value& stage = stages->array[0];
  std::vector<std::string> keys;
  for (const auto& [key, value] : stage.object) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"name", "samples", "mean",
                                            "stddev", "min", "max"}));
  EXPECT_EQ(stage.find("name")->str, "lat.p50_s");
  EXPECT_EQ(stage.find("samples")->array.size(), 4u);
  EXPECT_DOUBLE_EQ(stage.find("mean")->num, 0.0025);
  EXPECT_DOUBLE_EQ(stage.find("min")->num, 0.001);
  EXPECT_DOUBLE_EQ(stage.find("max")->num, 0.004);
  std::remove(args.obs_out.c_str());
  std::remove(args.quality_out.c_str());
}

TEST(HarnessArgs, RejectsMalformedCountsAndUnknownFlags) {
  bench::HarnessArgs args;
  for (const char* bad : {"--repeat=0", "--runs=1e3", "--repeat=",
                          "--runs=-5", "--repeat=+2", "--obs=verbose",
                          "--no-such-flag"}) {
    EXPECT_FALSE(args.consume(bad)) << bad;
  }
  // A rejected value leaves the field as it was.
  EXPECT_EQ(args.repeat, 1u);
  EXPECT_EQ(args.runs, bench::kRuns);
  EXPECT_TRUE(args.consume("--repeat=3"));
  EXPECT_TRUE(args.consume("--runs=250"));
  EXPECT_EQ(args.repeat, 3u);
  EXPECT_EQ(args.runs, 250u);
}

// ---------------------------------------------------------------------------
// Provenance: one parser for the top-level fields of every run document.

TEST(Provenance, ComparableWithIgnoresGitOnly) {
  obs::Provenance a;
  a.git = "g1";
  a.hostname = "m1";
  a.obs_mode = "off";
  a.workers = 4;
  obs::Provenance b = a;
  b.git = "g2";  // git differs: comparable
  EXPECT_TRUE(a.comparable_with(b));
  obs::Provenance c = a;
  c.hostname = "m2";
  obs::Provenance d = a;
  d.workers = 8;
  obs::Provenance e = a;
  e.obs_mode = "trace";
  EXPECT_FALSE(a.comparable_with(c));
  EXPECT_FALSE(a.comparable_with(d));
  EXPECT_FALSE(a.comparable_with(e));
}

/// Parses {"bench":"b", "<key>": <value>} for the count tests below.
obs::Provenance provenance_with(const std::string& key,
                                const std::string& value) {
  return obs::parse_provenance(
      obs::json::parse("{\"bench\":\"b\",\"" + key + "\":" + value + "}"));
}

// A plain double -> size_t cast read these as 18446744073709551615, 0 and
// 1; each must be rejected for every count field instead.
TEST(Provenance, RejectsNegativeCount) {
  for (const char* key : {"workers", "runs", "repeat", "seed"}) {
    EXPECT_THROW(provenance_with(key, "-1"), std::invalid_argument) << key;
  }
}

TEST(Provenance, RejectsCountAboveTwoToThe53) {
  for (const char* key : {"workers", "runs", "repeat"}) {
    EXPECT_THROW(provenance_with(key, "1e300"), std::invalid_argument) << key;
    EXPECT_THROW(provenance_with(key, "9007199254740994"),
                 std::invalid_argument)
        << key;
    EXPECT_EQ(provenance_with(key, "9007199254740992").bench, "b") << key;
  }
  EXPECT_THROW(provenance_with("seed", "1e300"), std::invalid_argument);
}

TEST(Provenance, RejectsNonIntegralCount) {
  for (const char* key : {"workers", "runs", "repeat", "seed"}) {
    EXPECT_THROW(provenance_with(key, "1.5"), std::invalid_argument) << key;
    EXPECT_THROW(provenance_with(key, "\"4\""), std::invalid_argument) << key;
  }
  EXPECT_EQ(provenance_with("workers", "4").workers, 4u);
}

// ---------------------------------------------------------------------------
// Ledger: a line is the run document itself.

/// A schema-v2 BENCH document with two stages of seeded samples.
std::string bench_document(const std::string& bench,
                           const std::string& timestamp, std::uint64_t seed) {
  std::string samples[2];
  for (int s = 0; s < 2; ++s) {
    for (const double x : timing_draw(seed + s, 8)) {
      if (!samples[s].empty()) samples[s] += ',';
      samples[s] += obs::json::number(x);
    }
  }
  return R"({"schema_version":2,"bench":")" + bench +
         R"(","git":"abc-dirty","hostname":"m1","timestamp":")" + timestamp +
         R"(","runs":300,"repeat":8,"fast":true,"workers":4,"obs_mode":"off",)"
         R"("stages":[{"name":"corpus","samples":[)" +
         samples[0] + R"(]},{"name":"predict","samples":[)" + samples[1] +
         "]}]}";
}

/// Every document of a ledger, parsed with `parse`.
template <class Doc>
std::vector<Doc> load_ledger(const std::string& path,
                             Doc (*parse)(const obs::json::Value&)) {
  std::vector<Doc> docs;
  obs::for_each_document(path, [&](const obs::json::Value& doc) {
    docs.push_back(parse(doc));
  });
  return docs;
}

TEST(Ledger, TimingDocumentsRoundTripAndLatestPerBench) {
  const std::string path = testing::TempDir() + "/varpred_timing_ledger.jsonl";
  std::remove(path.c_str());
  const std::string first = bench_document("demo", "2026-08-05T10:00:00Z", 1);
  const std::string other = bench_document("other", "2026-08-05T11:00:00Z", 3);
  const std::string second = bench_document("demo", "2026-08-06T10:00:00Z", 5);
  for (const std::string* doc : {&first, &other, &second}) {
    obs::append_ledger(path, obs::json::parse(*doc));
  }

  const auto docs = load_ledger(path, obs::parse_bench_telemetry);
  ASSERT_EQ(docs.size(), 3u);
  const auto latest = obs::latest_per_bench(docs);
  ASSERT_EQ(latest.size(), 2u);
  EXPECT_EQ(latest[0], &docs[2]);
  EXPECT_EQ(latest[1], &docs[1]);

  const obs::BenchTelemetry want =
      obs::parse_bench_telemetry(obs::json::parse(second));
  const obs::BenchTelemetry& got = *latest[0];
  EXPECT_EQ(got.schema_version, 2);
  EXPECT_EQ(got.provenance.timestamp, "2026-08-06T10:00:00Z");
  EXPECT_EQ(got.provenance.git, "abc-dirty");
  EXPECT_EQ(got.provenance.hostname, "m1");
  EXPECT_EQ(got.provenance.workers, 4u);
  EXPECT_EQ(got.provenance.obs_mode, "off");
  EXPECT_EQ(got.provenance.repeat, 8u);
  ASSERT_EQ(got.stages.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(got.stages[i].name, want.stages[i].name);
    EXPECT_EQ(got.stages[i].samples, want.stages[i].samples);
    EXPECT_EQ(got.stages[i].samples, timing_draw(5 + i, 8));
  }
  std::remove(path.c_str());
}

TEST(Ledger, AppendToUnwritablePathThrows) {
  // A read-only checkout or missing directory used to drop the append on
  // the floor, letting the gate pass against a stale ledger.
  const obs::json::Value doc =
      obs::json::parse(bench_document("demo", "2026-08-05T10:00:00Z", 1));
  EXPECT_THROW(
      obs::append_ledger(
          testing::TempDir() + "/varpred_missing_dir/baseline.jsonl", doc),
      std::runtime_error);
  // A directory path opens no file either.
  EXPECT_THROW(obs::append_ledger(testing::TempDir(), doc),
               std::runtime_error);
}

TEST(Ledger, ErrorsNamePathAndLine) {
  const std::string path = testing::TempDir() + "/varpred_bad_ledger.jsonl";
  std::remove(path.c_str());
  obs::append_ledger(
      path, obs::json::parse(bench_document("demo", "2026-08-05", 1)));
  obs::json::Value bad =
      obs::json::parse(bench_document("demo", "2026-08-06", 2));
  for (auto& [key, value] : bad.object) {
    if (key == "workers") value = obs::json::make_number(-1);
  }
  obs::append_ledger(path, bad);
  try {
    load_ledger(path, obs::parse_bench_telemetry);
    FAIL() << "a negative worker count must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path + ":2: \"workers\""),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

#ifndef VARPRED_SOURCE_DIR
#define VARPRED_SOURCE_DIR "."
#endif

// The checked-in ledgers are what the CI gates compare against: every line
// must parse as its kind, with the flat provenance of a run document.
TEST(Ledger, CheckedInLedgersParseAsTheirKind) {
  const std::string root = std::string(VARPRED_SOURCE_DIR) + "/bench/baselines";
  const auto timing = load_ledger(root, obs::parse_bench_telemetry);
  EXPECT_EQ(timing.size(), 10u);
  const auto latest = obs::latest_per_bench(timing);
  EXPECT_EQ(latest.size(), 6u);
  for (const obs::BenchTelemetry& t : timing) {
    // The serving ledger's series-shaped lines (schema 3, then schema 4)
    // were taken on the same host with its pool at the machine's 4 cores;
    // every older line is a schema-2 run at 1 worker.
    const bool serve_series =
        t.provenance.bench == "serve" && t.schema_version >= 3;
    if (serve_series) {
      EXPECT_TRUE(t.schema_version == 3 || t.schema_version == 4)
          << t.schema_version;
    } else {
      EXPECT_EQ(t.schema_version, 2) << t.provenance.bench;
    }
    EXPECT_EQ(t.provenance.hostname, "vm") << t.provenance.bench;
    EXPECT_EQ(t.provenance.workers, serve_series ? 4u : 1u)
        << t.provenance.bench;
    EXPECT_FALSE(t.stages.empty()) << t.provenance.bench;
    for (const obs::StageSamples& s : t.stages) {
      EXPECT_EQ(s.samples.size(), t.provenance.repeat)
          << t.provenance.bench << "/" << s.name;
    }
  }
  // The serving baseline bench_diff reads is the latest line: the seven
  // latency/throughput series, with no fixed-duration window stages, and
  // the open-loop point below saturation.
  const auto serve = std::find_if(
      latest.begin(), latest.end(), [](const obs::BenchTelemetry* t) {
        return t->provenance.bench == "serve";
      });
  ASSERT_NE(serve, latest.end());
  std::vector<std::string> names;
  for (const obs::StageSamples& s : (*serve)->stages) names.push_back(s.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "closed_c1.p50_s", "closed_c1.p99_s", "closed_cN.p50_s",
                       "closed_cN.p99_s", "closed_cN.s_per_request",
                       "open_half.p50_s", "open_half.p99_s"}));
  EXPECT_EQ((*serve)->schema_version, 4);
  const auto quality =
      load_ledger(root + "/quality", obs::parse_quality_document);
  EXPECT_EQ(quality.size(), 6u);
  for (const obs::QualityDocument& q : quality) {
    EXPECT_FALSE(q.cells.empty()) << q.provenance.bench;
  }
}

// ---------------------------------------------------------------------------
// Whole-run diffs.

obs::StageSamples stage(std::string name, std::vector<double> samples) {
  obs::StageSamples s;
  s.name = std::move(name);
  s.samples = std::move(samples);
  return s;
}

/// A telemetry document of stage draws seeded from `seed`, with the
/// "corpus" stage scaled by `factor`.
obs::BenchTelemetry demo_telemetry(std::uint64_t seed, double factor = 1.0) {
  obs::BenchTelemetry t;
  t.schema_version = 2;
  t.provenance.bench = "demo";
  t.provenance.git = "def";
  t.provenance.hostname = "m1";
  t.provenance.timestamp = "2026-08-07T10:00:00Z";
  t.provenance.obs_mode = "off";
  t.provenance.workers = 4;
  t.provenance.runs = 300;
  t.provenance.repeat = 8;
  t.stages.push_back(stage("corpus", timing_draw(seed, 8, factor)));
  t.stages.push_back(stage("predict", timing_draw(seed + 1, 8)));
  return t;
}

TEST(BenchDiff, RunDiffFlagsOnlyTheSlowedStage) {
  const obs::BenchTelemetry base = demo_telemetry(21);
  const auto run =
      obs::diff_telemetry(base, demo_telemetry(11, 2.0), test_config());
  EXPECT_TRUE(run.env_match);
  ASSERT_EQ(run.stages.size(), 2u);
  EXPECT_EQ(run.stages[0].verdict, obs::Verdict::kRegressed);
  EXPECT_EQ(run.stages[1].verdict, obs::Verdict::kUnchanged);
  EXPECT_EQ(run.verdict, obs::Verdict::kRegressed);
}

TEST(BenchDiff, StagesMissingOnEitherSideAreInconclusive) {
  obs::BenchTelemetry base = demo_telemetry(1);
  base.stages.push_back(stage("retired_stage", timing_draw(3, 8)));
  obs::BenchTelemetry cand = demo_telemetry(11);
  cand.stages.push_back(stage("new_stage", timing_draw(4, 8)));
  const auto run = obs::diff_telemetry(base, cand, test_config());
  ASSERT_EQ(run.stages.size(), 4u);
  bool saw_new = false;
  bool saw_retired = false;
  for (const auto& d : run.stages) {
    if (d.stage == "new_stage") {
      saw_new = true;
      EXPECT_EQ(d.verdict, obs::Verdict::kInconclusive);
      EXPECT_EQ(d.note, "stage missing from baseline");
    }
    if (d.stage == "retired_stage") {
      saw_retired = true;
      EXPECT_EQ(d.verdict, obs::Verdict::kInconclusive);
      EXPECT_EQ(d.note, "stage missing from candidate");
    }
  }
  EXPECT_TRUE(saw_new);
  EXPECT_TRUE(saw_retired);
}

TEST(BenchDiff, OneSidedStageReportsThePresentSideMedian) {
  obs::BenchTelemetry base = demo_telemetry(1);
  base.stages.push_back(stage("retired_stage", {0.3, 0.1, 0.2}));
  obs::BenchTelemetry cand = demo_telemetry(11);
  cand.stages.push_back(stage("new_stage", {0.005, 0.004, 0.006, 0.009}));
  const std::vector<obs::RunDiff> runs = {
      obs::diff_telemetry(base, cand, test_config())};

  const std::string md = obs::markdown_report(runs, test_config());
  EXPECT_NE(md.find("| new_stage | 0 | 4 | 0 | 0.0055 |"), std::string::npos)
      << md;
  EXPECT_NE(md.find("| retired_stage | 3 | 0 | 0.2 | 0 |"), std::string::npos)
      << md;

  const obs::json::Value jruns = obs::json_report(runs);
  ASSERT_EQ(jruns.array.size(), 1u);
  const obs::json::Value* stages = jruns.array[0].find("stages");
  ASSERT_NE(stages, nullptr);
  int seen = 0;
  for (const obs::json::Value& js : stages->array) {
    const std::string& name = js.find("stage")->str;
    if (name == "new_stage") {
      ++seen;
      EXPECT_EQ(js.find("verdict")->str, "inconclusive");
      EXPECT_DOUBLE_EQ(js.find("candidate_median")->num, 0.0055);
      EXPECT_EQ(js.find("baseline_median")->num, 0.0);
    } else if (name == "retired_stage") {
      ++seen;
      EXPECT_EQ(js.find("verdict")->str, "inconclusive");
      EXPECT_DOUBLE_EQ(js.find("baseline_median")->num, 0.2);
      EXPECT_EQ(js.find("candidate_median")->num, 0.0);
    }
  }
  EXPECT_EQ(seen, 2);
}

TEST(BenchDiff, EnvMismatchIsNotedButNeverDemotes) {
  obs::BenchTelemetry base = demo_telemetry(21);
  base.provenance.hostname = "other-machine";

  const auto run =
      obs::diff_telemetry(base, demo_telemetry(11, 2.0), test_config());
  EXPECT_FALSE(run.env_match);
  EXPECT_NE(run.env_note.find("hostname"), std::string::npos);
  EXPECT_EQ(run.stages[0].verdict, obs::Verdict::kRegressed);
  const std::vector<obs::RunDiff> runs{run};
  EXPECT_NE(obs::markdown_report(runs, test_config())
                .find("environment mismatch (hostname other-machine -> m1)"),
            std::string::npos);
}

TEST(BenchDiff, ReportsNameTheVerdicts) {
  obs::BenchTelemetry base = demo_telemetry(21);
  obs::BenchTelemetry cand = demo_telemetry(11, 2.0);
  // A sub-millisecond series (a serving latency quantile) keeps four
  // significant digits in the median columns instead of rounding to 0.0004.
  base.stages.push_back(stage("lat.p50_s", std::vector<double>(8, 0.0003614)));
  cand.stages.push_back(stage("lat.p50_s", std::vector<double>(8, 0.0003614)));
  const std::vector<obs::RunDiff> runs = {
      obs::diff_telemetry(base, cand, test_config())};
  const obs::DiffConfig config = test_config();
  const std::string md = obs::markdown_report(runs, config);
  EXPECT_NE(md.find("regressed"), std::string::npos);
  EXPECT_NE(md.find("| corpus |"), std::string::npos);
  EXPECT_NE(md.find("| lat.p50_s | 8 | 8 | 0.0003614 | 0.0003614 |"),
            std::string::npos)
      << md;

  const obs::json::Value jruns = obs::json_report(runs);
  ASSERT_TRUE(jruns.is_array());
  ASSERT_EQ(jruns.array.size(), 1u);
  EXPECT_EQ(jruns.array[0].find("bench")->str, "demo");
  EXPECT_EQ(jruns.array[0].find("overall")->str, "regressed");
}

TEST(BenchDiff, OverallVerdictFoldsWorstCase) {
  using obs::Verdict;
  std::vector<obs::StageDiff> stages(3);
  stages[0].verdict = Verdict::kUnchanged;
  stages[1].verdict = Verdict::kImproved;
  stages[2].verdict = Verdict::kUnchanged;
  EXPECT_EQ(obs::overall_verdict(stages), Verdict::kImproved);
  stages[2].verdict = Verdict::kInconclusive;
  EXPECT_EQ(obs::overall_verdict(stages), Verdict::kInconclusive);
  stages[0].verdict = Verdict::kRegressed;
  EXPECT_EQ(obs::overall_verdict(stages), Verdict::kRegressed);
}

TEST(BenchDiff, WorseVerdictIsASymmetricSeverityOrder) {
  using obs::Verdict;
  // Severity, least to most: unchanged < improved < inconclusive <
  // regressed (not the enum's declaration order).
  const Verdict by_severity[] = {Verdict::kUnchanged, Verdict::kImproved,
                                 Verdict::kInconclusive, Verdict::kRegressed};
  for (std::size_t i = 0; i < std::size(by_severity); ++i) {
    for (std::size_t j = 0; j < std::size(by_severity); ++j) {
      const Verdict expected = by_severity[std::max(i, j)];
      EXPECT_EQ(obs::worse_verdict(by_severity[i], by_severity[j]), expected)
          << obs::to_string(by_severity[i]) << " vs "
          << obs::to_string(by_severity[j]);
    }
  }
}

TEST(EnumNames, OutOfRangeVerdictThrows) {
  const auto bogus = static_cast<obs::Verdict>(99);
  EXPECT_THROW(obs::to_string(bogus), std::invalid_argument);
  EXPECT_THROW(obs::worse_verdict(obs::Verdict::kUnchanged, bogus),
               std::invalid_argument);
  EXPECT_THROW(obs::worse_verdict(bogus, obs::Verdict::kRegressed),
               std::invalid_argument);
}

TEST(Provenance, DescribeNamesTheEnvironment) {
  obs::Provenance p;
  p.git = "abc123";
  p.hostname = "node7";
  p.seed = 42;
  p.workers = 4;
  p.repeat = 3;
  p.obs_mode = "off";
  EXPECT_EQ(p.describe(),
            "git=abc123 host=node7 seed=42 workers=4 repeat=3 obs=off");
  p.fast = true;
  EXPECT_EQ(p.describe(),
            "git=abc123 host=node7 seed=42 workers=4 repeat=3 obs=off fast");
}

}  // namespace
}  // namespace varpred
