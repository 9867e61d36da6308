#include "obs/regression.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "stats/bootstrap.hpp"
#include "stats/ecdf.hpp"
#include "stats/ks.hpp"
#include "stats/scores.hpp"

namespace varpred::obs {

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kUnchanged:
      return "unchanged";
    case Verdict::kImproved:
      return "improved";
    case Verdict::kRegressed:
      return "regressed";
    case Verdict::kInconclusive:
      return "inconclusive";
  }
  VARPRED_CHECK_ARG(false, "unknown verdict");
}

Verdict worse_verdict(Verdict a, Verdict b) {
  // Severity order, which is not the enum's declaration order.
  const auto rank = [](Verdict v) {
    switch (v) {
      case Verdict::kUnchanged:
        return 0;
      case Verdict::kImproved:
        return 1;
      case Verdict::kInconclusive:
        return 2;
      case Verdict::kRegressed:
        return 3;
    }
    VARPRED_CHECK_ARG(false, "unknown verdict");
  };
  return rank(b) > rank(a) ? b : a;
}

BootstrapCi bootstrap_ci(
    std::string_view id, std::span<const double> baseline,
    std::span<const double> candidate, std::uint64_t seed,
    std::size_t replicates, double ci_alpha,
    const std::function<double(std::span<const double>,
                               std::span<const double>)>& statistic) {
  Rng rng(seed_combine(seed, stable_hash(id)));
  std::vector<double> values;
  values.reserve(replicates);
  for (std::size_t b = 0; b < replicates; ++b) {
    const auto base_star = stats::resample(baseline, rng);
    const auto cand_star = stats::resample(candidate, rng);
    const double value = statistic(base_star, cand_star);
    if (!std::isnan(value)) values.push_back(value);
  }
  BootstrapCi ci;
  ci.kept = values.size();
  if (values.empty()) return ci;
  std::sort(values.begin(), values.end());
  ci.lo = stats::quantile_sorted(values, ci_alpha / 2.0);
  ci.hi = stats::quantile_sorted(values, 1.0 - ci_alpha / 2.0);
  return ci;
}

std::string fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  return buf;
}

namespace {

/// Advisory tail columns: p50/p99 of the raw samples on each side. Never
/// part of the verdict — with typical repeat counts the p99 is just the
/// max — but a consistent tail drift across stages is worth seeing.
void fill_tails(StageDiff& d, std::span<const double> baseline,
                std::span<const double> candidate) {
  if (baseline.empty() || candidate.empty()) return;
  d.has_tails = true;
  d.baseline_p50 = stats::quantile(baseline, 0.50);
  d.candidate_p50 = stats::quantile(candidate, 0.50);
  d.baseline_p99 = stats::quantile(baseline, 0.99);
  d.candidate_p99 = stats::quantile(candidate, 0.99);
  if (d.baseline_p50 > 0.0) {
    d.p50_shift = (d.candidate_p50 - d.baseline_p50) / d.baseline_p50;
  }
  if (d.baseline_p99 > 0.0) {
    d.p99_shift = (d.candidate_p99 - d.baseline_p99) / d.baseline_p99;
  }
}

}  // namespace

StageDiff diff_stage(std::string name, std::span<const double> baseline,
                     std::span<const double> candidate,
                     const DiffConfig& config) {
  StageDiff d;
  d.stage = std::move(name);
  d.n_baseline = baseline.size();
  d.n_candidate = candidate.size();
  fill_tails(d, baseline, candidate);
  if (d.n_baseline < config.min_samples ||
      d.n_candidate < config.min_samples) {
    d.verdict = Verdict::kInconclusive;
    d.note = "too few samples (need >= " +
             std::to_string(config.min_samples) + " per side)";
    if (!baseline.empty()) d.baseline_median = stats::median(baseline);
    if (!candidate.empty()) d.candidate_median = stats::median(candidate);
    return d;
  }

  d.baseline_median = stats::median(baseline);
  d.candidate_median = stats::median(candidate);
  std::vector<double> sorted_baseline(baseline.begin(), baseline.end());
  std::vector<double> sorted_candidate(candidate.begin(), candidate.end());
  const stats::PairScores scores =
      stats::score_pair_in_place(sorted_baseline, sorted_candidate);
  d.ks_stat = scores.ks;
  d.ks_pvalue = stats::ks_pvalue(d.ks_stat, d.n_baseline, d.n_candidate);
  d.w1_normalized = scores.wasserstein1;

  if (!(d.baseline_median > 0.0)) {
    d.verdict = Verdict::kInconclusive;
    d.note = "non-positive baseline median";
    return d;
  }
  d.shift = (d.candidate_median - d.baseline_median) / d.baseline_median;

  // Percentile bootstrap on the relative median shift; replicates whose
  // resampled baseline median is not positive are dropped.
  const BootstrapCi ci = bootstrap_ci(
      d.stage, baseline, candidate, config.seed, config.bootstrap_replicates,
      config.ci_alpha,
      [](std::span<const double> base, std::span<const double> cand) {
        const double base_median = stats::median(base);
        if (!(base_median > 0.0)) return std::nan("");
        return (stats::median(cand) - base_median) / base_median;
      });
  if (ci.kept < config.bootstrap_replicates / 2) {
    d.verdict = Verdict::kInconclusive;
    d.note = "bootstrap degenerate (resampled baseline medians <= 0)";
    return d;
  }
  d.shift_lo = ci.lo;
  d.shift_hi = ci.hi;

  const bool distribution_changed =
      d.ks_pvalue < config.alpha && d.w1_normalized > config.w1_threshold;
  if (!distribution_changed) {
    d.verdict = Verdict::kUnchanged;
  } else if (d.shift_lo > 0.0) {
    d.verdict = Verdict::kRegressed;
  } else if (d.shift_hi < 0.0) {
    d.verdict = Verdict::kImproved;
  } else {
    d.verdict = Verdict::kInconclusive;
    d.note = "distribution changed but median-shift CI straddles 0";
  }
  return d;
}

RunDiff diff_telemetry(const BenchTelemetry& baseline,
                       const BenchTelemetry& candidate,
                       const DiffConfig& config) {
  RunDiff run;
  run.bench = candidate.provenance.bench;
  run.baseline = baseline.provenance;
  run.candidate = candidate.provenance;
  run.env_match = run.baseline.comparable_with(run.candidate);
  if (!run.env_match) {
    std::string note;
    if (run.baseline.hostname != run.candidate.hostname) {
      note += "hostname " + run.baseline.hostname + " -> " +
              run.candidate.hostname + "; ";
    }
    if (run.baseline.workers != run.candidate.workers) {
      note += "workers " + std::to_string(run.baseline.workers) + " -> " +
              std::to_string(run.candidate.workers) + "; ";
    }
    if (run.baseline.obs_mode != run.candidate.obs_mode) {
      note += "obs_mode " + run.baseline.obs_mode + " -> " +
              run.candidate.obs_mode + "; ";
    }
    if (note.size() >= 2) note.resize(note.size() - 2);
    run.env_note = note;
  }

  for (const StageSamples& cand : candidate.stages) {
    const StageSamples* base = nullptr;
    for (const StageSamples& s : baseline.stages) {
      if (s.name == cand.name) {
        base = &s;
        break;
      }
    }
    if (base == nullptr) {
      StageDiff d;
      d.stage = cand.name;
      d.n_candidate = cand.samples.size();
      if (!cand.samples.empty()) {
        d.candidate_median = stats::median(cand.samples);
      }
      d.verdict = Verdict::kInconclusive;
      d.note = "stage missing from baseline";
      run.stages.push_back(std::move(d));
      continue;
    }
    run.stages.push_back(
        diff_stage(cand.name, base->samples, cand.samples, config));
  }
  for (const StageSamples& base : baseline.stages) {
    bool present = false;
    for (const StageSamples& cand : candidate.stages) {
      if (cand.name == base.name) {
        present = true;
        break;
      }
    }
    if (!present) {
      StageDiff d;
      d.stage = base.name;
      d.n_baseline = base.samples.size();
      if (!base.samples.empty()) {
        d.baseline_median = stats::median(base.samples);
      }
      d.verdict = Verdict::kInconclusive;
      d.note = "stage missing from candidate";
      run.stages.push_back(std::move(d));
    }
  }
  run.verdict = overall_verdict(run.stages);
  return run;
}

namespace {

std::string scientific(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2g", value);
  return buf;
}

std::string percent(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%+.1f%%", value * 100.0);
  return buf;
}

/// Four significant digits: a 0.36 ms latency stage reads 0.0003612, not
/// the 0.0004 a fixed four decimals would print.
std::string significant(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g", value);
  return buf;
}

}  // namespace

std::string markdown_report(std::span<const RunDiff> runs,
                            const DiffConfig& config) {
  std::string out = "# bench_diff report\n\n";
  out += "overall: **" + std::string(to_string(overall_verdict(runs))) +
         "**\n\n";
  for (const RunDiff& run : runs) {
    out += "## " + run.bench + " — " + to_string(run.verdict) + "\n\n";
    out += "baseline: " + run.baseline.describe() + "\n";
    out += "candidate: " + run.candidate.describe() + "\n";
    if (!run.env_match) {
      out += "\n> environment mismatch (" + run.env_note +
             "): timing comparisons across environments are advisory.\n";
    }
    out +=
        "\n| stage | n(base) | n(cand) | median(base) s | median(cand) s "
        "| shift [95% CI] | Δp50 | Δp99 | KS p | W1n | verdict |\n"
        "|---|---|---|---|---|---|---|---|---|---|---|\n";
    for (const StageDiff& d : run.stages) {
      out += "| " + d.stage + " | " + std::to_string(d.n_baseline) + " | " +
             std::to_string(d.n_candidate) + " | " +
             significant(d.baseline_median) + " | " +
             significant(d.candidate_median) + " | " + percent(d.shift) + " [" +
             percent(d.shift_lo) + ", " + percent(d.shift_hi) + "] | " +
             (d.has_tails ? percent(d.p50_shift) : std::string("—")) + " | " +
             (d.has_tails ? percent(d.p99_shift) : std::string("—")) + " | " +
             scientific(d.ks_pvalue) + " | " + fixed(d.w1_normalized, 3) +
             " | " + to_string(d.verdict);
      if (!d.note.empty()) out += " — " + d.note;
      out += " |\n";
    }
    out += "\n";
  }
  out += "thresholds: KS alpha=" + scientific(config.alpha) +
         ", W1n floor=" + fixed(config.w1_threshold, 3) +
         ", min samples/side=" + std::to_string(config.min_samples) +
         ", bootstrap=" + std::to_string(config.bootstrap_replicates) +
         " reps at " + fixed((1.0 - config.ci_alpha) * 100.0, 0) +
         "% CI, seed=" + std::to_string(config.seed) +
         "; Δp50/Δp99 are advisory and never gate\n";
  return out;
}

json::Value json_report(std::span<const RunDiff> runs) {
  json::Value jruns;
  jruns.type = json::Value::Type::kArray;
  for (const RunDiff& run : runs) {
    json::Value jr;
    jr.type = json::Value::Type::kObject;
    jr.object.emplace_back("bench", json::make_string(run.bench));
    jr.object.emplace_back("overall", json::make_string(to_string(run.verdict)));
    jr.object.emplace_back("env_match", json::make_bool(run.env_match));
    if (!run.env_note.empty()) {
      jr.object.emplace_back("env_note", json::make_string(run.env_note));
    }
    json::Value jstages;
    jstages.type = json::Value::Type::kArray;
    for (const StageDiff& d : run.stages) {
      json::Value js;
      js.type = json::Value::Type::kObject;
      const auto num = [&](const char* key, double value) {
        js.object.emplace_back(key, json::make_number(value));
      };
      js.object.emplace_back("stage", json::make_string(d.stage));
      js.object.emplace_back("verdict", json::make_string(to_string(d.verdict)));
      num("n_baseline", static_cast<double>(d.n_baseline));
      num("n_candidate", static_cast<double>(d.n_candidate));
      num("baseline_median", d.baseline_median);
      num("candidate_median", d.candidate_median);
      num("ks_stat", d.ks_stat);
      num("ks_pvalue", d.ks_pvalue);
      num("w1_normalized", d.w1_normalized);
      num("shift", d.shift);
      num("shift_lo", d.shift_lo);
      num("shift_hi", d.shift_hi);
      if (d.has_tails) {
        num("baseline_p50", d.baseline_p50);
        num("candidate_p50", d.candidate_p50);
        num("baseline_p99", d.baseline_p99);
        num("candidate_p99", d.candidate_p99);
        num("p50_shift", d.p50_shift);
        num("p99_shift", d.p99_shift);
      }
      if (!d.note.empty()) {
        js.object.emplace_back("note", json::make_string(d.note));
      }
      jstages.array.push_back(std::move(js));
    }
    jr.object.emplace_back("stages", std::move(jstages));
    jruns.array.push_back(std::move(jr));
  }
  return jruns;
}

}  // namespace varpred::obs
