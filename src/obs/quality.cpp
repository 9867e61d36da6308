#include "obs/quality.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "stats/moments.hpp"
#include "stats/scores.hpp"

namespace varpred::obs {

bool lower_is_better(std::string_view metric) {
  // Distances shrink toward 0 for perfect predictions; the overlap
  // coefficient is the one similarity score (grows toward 1).
  return metric.substr(0, 7) != "overlap";
}

std::atomic<bool> QualityRecorder::enabled_{false};

QualityRecorder& QualityRecorder::instance() {
  static QualityRecorder recorder;
  return recorder;
}

void QualityRecorder::record(const QualityCellKey& key, double score) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  for (QualityCell& cell : cells_) {
    if (cell.key == key) {
      cell.samples.push_back(score);
      return;
    }
  }
  cells_.push_back(QualityCell{key, {score}});
}

void QualityRecorder::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  cells_.clear();
}

std::vector<QualityCell> QualityRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cells_;
}

stats::PairScores record_prediction_scores(const QualityCellKey& base,
                                           std::span<const double> measured,
                                           std::span<const double> predicted) {
  std::vector<double> m(measured.begin(), measured.end());
  std::vector<double> p(predicted.begin(), predicted.end());
  const stats::PairScores scores = stats::score_pair_in_place(m, p);
  if (!QualityRecorder::enabled()) return scores;
  QualityRecorder& recorder = QualityRecorder::instance();
  QualityCellKey key = base;
  key.metric = "ks";
  recorder.record(key, scores.ks);
  key.metric = "wasserstein1_normalized";
  recorder.record(key, scores.wasserstein1);
  key.metric = "overlap";
  recorder.record(key, scores.overlap);
  return scores;
}

const char* quality_verdict_string(Verdict verdict) {
  return verdict == Verdict::kRegressed ? "degraded" : to_string(verdict);
}

namespace {

/// Positive = worse, by metric orientation.
double badness(double delta, bool lower_better) {
  return lower_better ? delta : -delta;
}

}  // namespace

CellDiff diff_cell(const QualityCellKey& key, std::span<const double> baseline,
                   std::span<const double> candidate,
                   const QualityDiffConfig& config) {
  CellDiff d;
  d.key = key;
  d.n_baseline = baseline.size();
  d.n_candidate = candidate.size();
  d.lower_better = lower_is_better(key.metric);
  if (baseline.empty() || candidate.empty()) {
    d.verdict = Verdict::kInconclusive;
    d.note = "empty sample set";
    return d;
  }

  // Non-finite scores (the wasserstein1_normalized infinity sentinel)
  // cannot enter means or bootstraps; compare them by count. A NaN on
  // either side is a pipeline bug, not a drift direction.
  std::vector<double> base_finite;
  std::vector<double> cand_finite;
  std::size_t base_bad = 0;
  std::size_t cand_bad = 0;
  bool saw_nan = false;
  const auto split = [&](std::span<const double> in, std::vector<double>& out,
                         std::size_t& bad) {
    for (const double x : in) {
      if (std::isfinite(x)) {
        out.push_back(x);
      } else if (std::isnan(x)) {
        saw_nan = true;
      } else if (badness(x, d.lower_better) > 0.0) {
        ++bad;
      }
    }
  };
  split(baseline, base_finite, base_bad);
  split(candidate, cand_finite, cand_bad);
  if (saw_nan) {
    d.verdict = Verdict::kInconclusive;
    d.note = "NaN sample";
    return d;
  }
  if (base_bad != cand_bad) {
    d.verdict = cand_bad > base_bad ? Verdict::kRegressed : Verdict::kImproved;
    d.note = "bad-direction non-finite samples " + std::to_string(base_bad) +
             " -> " + std::to_string(cand_bad);
    return d;
  }
  if (base_finite.empty() || cand_finite.empty()) {
    // All samples non-finite on some side, and the counts match: the
    // behavior is identical (e.g. w1n pinned at its infinity sentinel on
    // both sides).
    d.verdict =
        base_finite.empty() && cand_finite.empty() && base_bad == cand_bad
            ? Verdict::kUnchanged
            : Verdict::kInconclusive;
    d.note = "non-finite samples only";
    return d;
  }
  std::string nonfinite_note;
  if (base_bad > 0) {
    nonfinite_note = std::to_string(base_bad) +
                     " non-finite sample(s) per side excluded";
  }

  d.baseline_mean = stats::mean(base_finite);
  d.candidate_mean = stats::mean(cand_finite);
  d.delta = d.candidate_mean - d.baseline_mean;
  d.worse = badness(d.delta, d.lower_better);

  const bool have_ci = base_finite.size() >= config.min_samples_for_ci &&
                       cand_finite.size() >= config.min_samples_for_ci &&
                       config.bootstrap_replicates > 0;
  if (!have_ci) {
    // Scores are deterministic per seed: a single sample is the exact
    // value, so the point delta against the tolerance is the whole test.
    d.point_comparison = true;
    d.worse_lo = d.worse;
    d.worse_hi = d.worse;
    if (d.worse > config.tolerance) {
      d.verdict = Verdict::kRegressed;
    } else if (d.worse < -config.tolerance) {
      d.verdict = Verdict::kImproved;
    } else {
      d.verdict = Verdict::kUnchanged;
    }
    d.note = nonfinite_note;
    return d;
  }

  // Percentile bootstrap on the mean difference, orientation-adjusted.
  const BootstrapCi ci = bootstrap_ci(
      d.key.id(), base_finite, cand_finite, config.seed,
      config.bootstrap_replicates, config.ci_alpha,
      [&](std::span<const double> base, std::span<const double> cand) {
        return badness(stats::mean(cand) - stats::mean(base), d.lower_better);
      });
  d.worse_lo = ci.lo;
  d.worse_hi = ci.hi;

  if (d.worse_lo > config.tolerance) {
    d.verdict = Verdict::kRegressed;
  } else if (d.worse_hi < -config.tolerance) {
    d.verdict = Verdict::kImproved;
  } else if (std::fabs(d.worse) <= config.tolerance) {
    d.verdict = Verdict::kUnchanged;
  } else {
    d.verdict = Verdict::kInconclusive;
    d.note = "mean shift exceeds tolerance but its CI does not";
  }
  if (!nonfinite_note.empty()) {
    d.note = d.note.empty() ? nonfinite_note : d.note + "; " + nonfinite_note;
  }
  return d;
}

QualityDiff diff_quality(const RunDocument& baseline,
                         const RunDocument& candidate,
                         const QualityDiffConfig& config) {
  QualityDiff diff;
  diff.bench = candidate.provenance.bench;
  diff.baseline = baseline.provenance;
  diff.candidate = candidate.provenance;

  pair_items(
      baseline.cells, candidate.cells,
      [](const QualityCell& a, const QualityCell& b) { return a.key == b.key; },
      [&](const QualityCell& base, const QualityCell& cand) {
        diff.cells.push_back(
            diff_cell(cand.key, base.samples, cand.samples, config));
      },
      [&](const QualityCell& cell, bool in_candidate) {
        CellDiff d;
        d.key = cell.key;
        (in_candidate ? d.n_candidate : d.n_baseline) = cell.samples.size();
        d.lower_better = lower_is_better(cell.key.metric);
        d.verdict = Verdict::kInconclusive;
        d.note = in_candidate ? "cell missing from baseline"
                              : "cell missing from candidate";
        diff.cells.push_back(std::move(d));
      });
  diff.verdict = overall_verdict(diff.cells);
  return diff;
}

std::vector<QualityDiff> diff_against_reference(
    const std::vector<RunDocument>& reference,
    const std::vector<RunDocument>& candidates,
    const QualityDiffConfig& config) {
  const std::vector<const RunDocument*> latest = latest_per_bench(reference);
  std::vector<QualityDiff> diffs;
  for (const RunDocument& cand : candidates) {
    for (const RunDocument* ref : latest) {
      QualityDiff diff;
      diff.bench = cand.provenance.bench + " vs " + ref->provenance.bench;
      diff.baseline = ref->provenance;
      diff.candidate = cand.provenance;
      for (const QualityCell& cell : cand.cells) {
        for (const QualityCell& ref_cell : ref->cells) {
          if (ref_cell.key == cell.key) {
            diff.cells.push_back(
                diff_cell(cell.key, ref_cell.samples, cell.samples, config));
          }
        }
      }
      if (diff.cells.empty()) continue;
      diff.verdict = overall_verdict(diff.cells);
      diffs.push_back(std::move(diff));
    }
  }
  return diffs;
}

namespace {

std::string signed_fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%+.*f", digits, value);
  return buf;
}

std::string cell_label(const QualityCellKey& key) {
  std::string out = key.app + " · " + key.systems + " · " + key.repr + "/" +
                    key.model + " · " + key.metric;
  if (!key.context.empty()) out += " (" + key.context + ")";
  return out;
}

}  // namespace

std::string quality_markdown_report(std::span<const QualityDiff> diffs,
                                    const QualityDiffConfig& config) {
  std::string out = "# bench_diff quality report\n\n";
  out += "overall: **" +
         std::string(quality_verdict_string(overall_verdict(diffs))) +
         "**\n\n";
  for (const QualityDiff& diff : diffs) {
    out += "## " + diff.bench + " — " +
           quality_verdict_string(diff.verdict) + "\n\n";
    out += "baseline: " + diff.baseline.describe() + "\n";
    out += "candidate: " + diff.candidate.describe() + "\n\n";
    out +=
        "| cell | n(base) | n(cand) | mean(base) | mean(cand) | worse "
        "[95% CI] | verdict |\n"
        "|---|---|---|---|---|---|---|\n";
    for (const CellDiff& d : diff.cells) {
      out += "| " + cell_label(d.key) + " | " + std::to_string(d.n_baseline) +
             " | " + std::to_string(d.n_candidate) + " | " +
             fixed(d.baseline_mean, 4) + " | " + fixed(d.candidate_mean, 4) +
             " | " + signed_fixed(d.worse, 4);
      if (!d.point_comparison) {
        out += " [" + signed_fixed(d.worse_lo, 4) + ", " +
               signed_fixed(d.worse_hi, 4) + "]";
      }
      out += " | " + std::string(quality_verdict_string(d.verdict));
      if (!d.note.empty()) out += " — " + d.note;
      out += " |\n";
    }
    out += "\n";
  }
  out += "thresholds: |delta| tolerance=" + fixed(config.tolerance, 4) +
         " (absolute score units; \"worse\" is orientation-adjusted), " +
         "bootstrap=" + std::to_string(config.bootstrap_replicates) +
         " reps at " + fixed((1.0 - config.ci_alpha) * 100.0, 0) +
         "% CI (needs >= " + std::to_string(config.min_samples_for_ci) +
         " samples/side), seed=" + std::to_string(config.seed) + "\n";
  return out;
}

json::Value quality_json_report(std::span<const QualityDiff> diffs) {
  json::Value benches;
  benches.type = json::Value::Type::kArray;
  for (const QualityDiff& diff : diffs) {
    json::Value jb;
    jb.type = json::Value::Type::kObject;
    jb.object.emplace_back("bench", json::make_string(diff.bench));
    jb.object.emplace_back(
        "overall", json::make_string(quality_verdict_string(diff.verdict)));
    json::Value cells;
    cells.type = json::Value::Type::kArray;
    for (const CellDiff& d : diff.cells) {
      json::Value jc;
      jc.type = json::Value::Type::kObject;
      jc.object.emplace_back("app", json::make_string(d.key.app));
      jc.object.emplace_back("systems", json::make_string(d.key.systems));
      jc.object.emplace_back("repr", json::make_string(d.key.repr));
      jc.object.emplace_back("model", json::make_string(d.key.model));
      jc.object.emplace_back("metric", json::make_string(d.key.metric));
      if (!d.key.context.empty()) {
        jc.object.emplace_back("context", json::make_string(d.key.context));
      }
      jc.object.emplace_back(
          "verdict", json::make_string(quality_verdict_string(d.verdict)));
      jc.object.emplace_back(
          "n_baseline", json::make_number(static_cast<double>(d.n_baseline)));
      jc.object.emplace_back(
          "n_candidate",
          json::make_number(static_cast<double>(d.n_candidate)));
      jc.object.emplace_back("baseline_mean",
                             json::make_number(d.baseline_mean));
      jc.object.emplace_back("candidate_mean",
                             json::make_number(d.candidate_mean));
      jc.object.emplace_back("delta", json::make_number(d.delta));
      jc.object.emplace_back("worse", json::make_number(d.worse));
      jc.object.emplace_back("worse_lo", json::make_number(d.worse_lo));
      jc.object.emplace_back("worse_hi", json::make_number(d.worse_hi));
      jc.object.emplace_back("lower_is_better", json::make_bool(d.lower_better));
      jc.object.emplace_back("point_comparison",
                             json::make_bool(d.point_comparison));
      if (!d.note.empty()) {
        jc.object.emplace_back("note", json::make_string(d.note));
      }
      cells.array.push_back(std::move(jc));
    }
    jb.object.emplace_back("cells", std::move(cells));
    benches.array.push_back(std::move(jb));
  }
  return benches;
}

}  // namespace varpred::obs
