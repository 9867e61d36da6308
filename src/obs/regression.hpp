// Distribution-aware benchmark regression detection.
//
// The paper's thesis applied to our own telemetry: a stage's wall time is a
// *distribution* over repetitions, not a number, so candidate vs. baseline
// is a two-sample comparison, not a ratio of point estimates. A stage is
// only flagged when three independent signals agree:
//
//   1. The two-sample KS p-value says the samples are unlikely to come from
//      one distribution (significance),
//   2. the normalized 1-Wasserstein distance says the distributions are far
//      apart in units of their pooled spread (effect size — a significant
//      but microscopic shift stays "unchanged"), and
//   3. a percentile bootstrap CI on the relative median shift excludes zero
//      (direction — slower => regressed, faster => improved).
//
// Signals 1+2 without 3 (shape changed, median direction ambiguous — e.g.
// variance blow-up) yield `inconclusive`, as do undersized samples. All
// randomness is seeded, so verdicts are reproducible.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/ledger.hpp"
#include "obs/run_document.hpp"

namespace varpred::obs {

enum class Verdict {
  kUnchanged = 0,
  kImproved = 1,
  kRegressed = 2,
  kInconclusive = 3,
};

const char* to_string(Verdict verdict);

/// The worse of two verdicts: regressed > inconclusive > improved >
/// unchanged.
Verdict worse_verdict(Verdict a, Verdict b);

/// Worst-case fold over anything with a `verdict` member: any regressed =>
/// regressed; else any inconclusive => inconclusive; else any improved =>
/// improved; else unchanged. Shared by the timing and quality gates.
template <class Range>
Verdict overall_verdict(const Range& items) {
  Verdict overall = Verdict::kUnchanged;
  for (const auto& item : items) overall = worse_verdict(overall, item.verdict);
  return overall;
}

/// Pairs the items of a baseline and a candidate document that `same`
/// identifies: `both(base, cand)` for each candidate item the baseline
/// has, then `one_sided(item, in_candidate)` for each item only one side
/// has, candidate items first, each side in its own order. Shared by the
/// timing and quality diffs.
template <class Item, class Same, class Both, class OneSided>
void pair_items(const std::vector<Item>& baseline,
                const std::vector<Item>& candidate, Same same, Both both,
                OneSided one_sided) {
  for (const Item& cand : candidate) {
    const auto base = std::find_if(
        baseline.begin(), baseline.end(),
        [&](const Item& b) { return same(b, cand); });
    if (base == baseline.end()) {
      one_sided(cand, true);
    } else {
      both(*base, cand);
    }
  }
  for (const Item& base : baseline) {
    if (std::none_of(candidate.begin(), candidate.end(),
                     [&](const Item& c) { return same(base, c); })) {
      one_sided(base, false);
    }
  }
}

/// Seeded two-sample percentile bootstrap. Every replicate resamples
/// `baseline`, then `candidate`, from one stream seeded by
/// (seed, stable_hash(id)) — so results do not depend on the order items
/// are compared in — and keeps `statistic(baseline*, candidate*)` unless
/// it is NaN. `lo`/`hi` are the ci_alpha/2 and 1 - ci_alpha/2 quantiles of
/// the kept replicates (0 when none was kept).
struct BootstrapCi {
  double lo = 0.0;
  double hi = 0.0;
  std::size_t kept = 0;
};
BootstrapCi bootstrap_ci(
    std::string_view id, std::span<const double> baseline,
    std::span<const double> candidate, std::uint64_t seed,
    std::size_t replicates, double ci_alpha,
    const std::function<double(std::span<const double>,
                               std::span<const double>)>& statistic);

/// printf("%.*f") as a string, for the report writers.
std::string fixed(double value, int digits);

struct DiffConfig {
  /// KS p-value below which the two samples count as drawn from different
  /// distributions.
  double alpha = 0.01;
  /// Normalized W1 (distance in pooled-stddev units) the samples must also
  /// exceed: the effect-size floor that keeps statistically-significant
  /// noise from flagging.
  double w1_threshold = 0.10;
  /// Minimum samples per side; below this the verdict is inconclusive.
  std::size_t min_samples = 5;
  /// Bootstrap replicates for the median-shift CI.
  std::size_t bootstrap_replicates = 2000;
  /// Two-sided CI level on the median shift (0.05 => 95% CI).
  double ci_alpha = 0.05;
  /// Base seed; each stage derives an independent stream from its name, so
  /// verdicts do not depend on stage order.
  std::uint64_t seed = 0x5EEDBA5EULL;
};

/// Per-stage comparison result. Medians and shifts are in the samples'
/// units (wall seconds); `shift_*` are relative to the baseline median
/// ((cand - base) / base).
struct StageDiff {
  std::string stage;
  std::size_t n_baseline = 0;
  std::size_t n_candidate = 0;
  double baseline_median = 0.0;
  double candidate_median = 0.0;
  double ks_stat = 0.0;
  double ks_pvalue = 1.0;
  double w1_normalized = 0.0;
  double shift = 0.0;     ///< point estimate of the relative median shift
  double shift_lo = 0.0;  ///< bootstrap CI lower bound
  double shift_hi = 0.0;  ///< bootstrap CI upper bound
  /// Advisory tail columns: exact p50/p99 of the raw samples on each side
  /// plus their relative shifts. Purely informational — tails of small
  /// repeat counts are too noisy to gate on, so they never influence the
  /// verdict. Present when both sides have samples.
  bool has_tails = false;
  double baseline_p50 = 0.0;
  double candidate_p50 = 0.0;
  double baseline_p99 = 0.0;
  double candidate_p99 = 0.0;
  double p50_shift = 0.0;  ///< (cand_p50 - base_p50) / base_p50
  double p99_shift = 0.0;  ///< (cand_p99 - base_p99) / base_p99
  Verdict verdict = Verdict::kInconclusive;
  std::string note;  ///< why the verdict is what it is, when not obvious
};

/// One bench's comparison: provenance of both sides plus every stage's
/// diff. Timings measured in different environments are still compared;
/// the mismatch is noted so the report can call the comparison advisory.
struct RunDiff {
  std::string bench;
  Provenance baseline;
  Provenance candidate;
  bool env_match = true;
  std::string env_note;  ///< human-readable mismatch description
  std::vector<StageDiff> stages;
  Verdict verdict = Verdict::kUnchanged;
};

/// Compares one stage's samples (candidate vs. baseline).
StageDiff diff_stage(std::string name, std::span<const double> baseline,
                     std::span<const double> candidate,
                     const DiffConfig& config);

/// Compares a candidate document's stages against its baseline's.
/// Stages present on only one side come back inconclusive with a note and
/// the present side's median (the missing side's stays 0).
RunDiff diff_telemetry(const RunDocument& baseline,
                       const RunDocument& candidate,
                       const DiffConfig& config);

/// Markdown report (one table per bench, thresholds in the footer).
std::string markdown_report(std::span<const RunDiff> runs,
                            const DiffConfig& config);

/// Machine-readable report: one {"bench", "overall", "stages":[...]}
/// object per run.
json::Value json_report(std::span<const RunDiff> runs);

}  // namespace varpred::obs
