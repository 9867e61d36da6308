// Prediction-quality telemetry: the paper's accuracy metrics (KS,
// normalized Wasserstein-1, overlap) as first-class observables, through
// the same recorder → document → ledger → diff pipeline as wall time:
//
//   QualityRecorder   process-global sink the evaluator and cross-system
//                     stages report scores into, keyed by
//                     (app, systems, repr, model, metric [, context]).
//   run document      the "cells" half of BENCH_<name>.json
//                     (obs/run_document.hpp), one sample per repetition.
//   quality ledger    bench/baselines/quality/, one file per bench, plus
//                     the paper_reference ledger of published numbers.
//   diff_quality      per-cell unchanged|improved|degraded|inconclusive
//                     verdicts for tools/bench_diff.
//
// Scores are seeded, deterministic and worker-count independent, so the
// ledger compares across machines and the gate can be hard (exit 1) where
// perf-gate can only warn. Recording is off by default (one relaxed atomic
// load per call site) and independent of VARPRED_OBS; the bench harness
// switches it on.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/regression.hpp"
#include "obs/run_document.hpp"
#include "stats/scores.hpp"

namespace varpred::obs {

/// Whether smaller values of this metric mean better predictions. KS and
/// Wasserstein distances shrink toward 0 for perfect predictions; the
/// overlap coefficient grows toward 1.
bool lower_is_better(std::string_view metric);

/// Process-global score sink. Call sites stay in the hot path permanently
/// and pay one relaxed atomic load when recording is disabled (the library
/// default), which is how the "<1% overhead with VARPRED_OBS=off"
/// acceptance bar is met: there is nothing to skip.
class QualityRecorder {
 public:
  static QualityRecorder& instance();

  /// Cheap global gate for call sites.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Appends one score sample to the cell, creating it on first use.
  /// No-op when recording is disabled. Thread-safe, though the intended
  /// pattern is to record from the orchestrating thread after a parallel
  /// evaluation loop completes.
  void record(const QualityCellKey& key, double score);

  /// Drops every cell (samples and keys). The harness resets between
  /// independent runs.
  void reset();

  /// Copies the current cells, in first-recorded order (deterministic:
  /// the evaluation pipeline records from one thread in a seeded order).
  std::vector<QualityCell> snapshot() const;

 private:
  QualityRecorder() = default;

  static std::atomic<bool> enabled_;

  mutable std::mutex mutex_;
  std::vector<QualityCell> cells_;
};

/// Scores `predicted` against `measured` with the three paper metrics
/// (ks, wasserstein1_normalized, overlap), records each under `base` with
/// the metric field filled in, and returns the scores. Records nothing
/// when recording is disabled — callers do not need their own enabled()
/// check — but still scores, so a caller that prints a score reads it
/// here instead of scoring the pair a second time.
stats::PairScores record_prediction_scores(const QualityCellKey& base,
                                           std::span<const double> measured,
                                           std::span<const double> predicted);

/// Quality verdicts reuse the regression Verdict enum; only the label for
/// kRegressed differs ("degraded": accuracy drifts, it does not slow
/// down).
const char* quality_verdict_string(Verdict verdict);

struct QualityDiffConfig {
  /// Absolute score tolerance. Scores live on [0, 1]-ish scales (KS,
  /// overlap) so an absolute band is meaningful; deltas whose CI fits
  /// inside ±tolerance are unchanged.
  double tolerance = 0.02;
  /// Minimum samples per side for the bootstrap CI; below this the point
  /// delta is compared against the tolerance directly (scores are
  /// deterministic per seed, so a single sample is exact, not noisy).
  std::size_t min_samples_for_ci = 2;
  /// Bootstrap replicates for the mean-difference CI.
  std::size_t bootstrap_replicates = 2000;
  /// Two-sided CI level (0.05 => 95% CI).
  double ci_alpha = 0.05;
  /// Base seed; each cell derives an independent stream from its id so
  /// verdicts do not depend on cell order.
  std::uint64_t seed = 0x0AC5EEDULL;
};

/// Per-cell comparison. Deltas are candidate - baseline in raw score
/// units; `worse`/`worse_lo`/`worse_hi` are the same numbers sign-adjusted
/// by metric orientation so positive always means "predictions got worse".
struct CellDiff {
  QualityCellKey key;
  std::size_t n_baseline = 0;
  std::size_t n_candidate = 0;
  double baseline_mean = 0.0;
  double candidate_mean = 0.0;
  double delta = 0.0;
  double worse = 0.0;
  double worse_lo = 0.0;  ///< bootstrap CI bounds; == worse for point
  double worse_hi = 0.0;  ///< comparisons (single-sample sides)
  bool lower_better = true;
  bool point_comparison = false;
  Verdict verdict = Verdict::kInconclusive;
  std::string note;
};

/// One bench's quality comparison.
struct QualityDiff {
  std::string bench;
  Provenance baseline;
  Provenance candidate;
  std::vector<CellDiff> cells;
  Verdict verdict = Verdict::kUnchanged;
};

/// Compares one cell's score samples (candidate vs. baseline). Non-finite
/// samples (the wasserstein1_normalized infinity sentinel) are compared by
/// count: gaining bad-direction infinities is degraded, losing them
/// improved, equal counts fall through to the finite subsets.
CellDiff diff_cell(const QualityCellKey& key, std::span<const double> baseline,
                   std::span<const double> candidate,
                   const QualityDiffConfig& config);

/// Compares a candidate document's cells against its ledger baseline's.
/// Cells present on only one side come back inconclusive with a note.
QualityDiff diff_quality(const RunDocument& baseline,
                         const RunDocument& candidate,
                         const QualityDiffConfig& config);

/// Compares each candidate against the latest entry of every bench in a
/// reference ledger (the paper-anchored cells): one diff per (candidate,
/// reference bench) pair that shares at least one cell, holding only the
/// shared cells.
std::vector<QualityDiff> diff_against_reference(
    const std::vector<RunDocument>& reference,
    const std::vector<RunDocument>& candidates,
    const QualityDiffConfig& config);

/// Markdown report (one table per bench, thresholds in the footer).
std::string quality_markdown_report(std::span<const QualityDiff> diffs,
                                    const QualityDiffConfig& config);

/// Machine-readable report: one {"bench", "overall", "cells":[...]} object
/// per diff.
json::Value quality_json_report(std::span<const QualityDiff> diffs);

}  // namespace varpred::obs
