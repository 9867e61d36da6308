#include "obs/drift.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "obs/obs.hpp"

namespace varpred::obs {

const char* to_string(DriftState state) {
  switch (state) {
    case DriftState::kStable:
      return "stable";
    case DriftState::kDrifting:
      return "drifting";
    case DriftState::kShifted:
      return "shifted";
  }
  VARPRED_CHECK_ARG(false, "unknown drift state");
}

const char* to_string(DriftEvent::Kind kind) {
  switch (kind) {
    case DriftEvent::Kind::kRegimeChange:
      return "regime_change";
    case DriftEvent::Kind::kShiftDetected:
      return "shift_detected";
    case DriftEvent::Kind::kRecovered:
      return "recovered";
    case DriftEvent::Kind::kReferenceReset:
      return "reference_reset";
  }
  VARPRED_CHECK_ARG(false, "unknown drift event kind");
}

DriftDetector::DriftDetector(std::string name, DriftConfig config)
    : name_(std::move(name)), config_(config) {
  VARPRED_CHECK_ARG(!name_.empty(), "detector needs a name");
  VARPRED_CHECK_ARG(config_.shift_windows >= 1, "shift_windows must be >= 1");
  VARPRED_CHECK_ARG(config_.clear_windows >= 1, "clear_windows must be >= 1");
}

void DriftDetector::publish_state() {
  Registry::global()
      .gauge("drift." + name_ + ".state")
      .set(static_cast<double>(state_));
}

void DriftDetector::set_reference(std::vector<double> samples, double t) {
  VARPRED_CHECK_ARG(samples.size() >= config_.min_samples,
                    "reference window under min_samples");
  reference_ = std::move(samples);
  state_ = DriftState::kStable;
  consecutive_flagged_ = 0;
  consecutive_quiet_ = 0;
  if (reference_installed_) {
    DriftEvent event;
    event.kind = DriftEvent::Kind::kReferenceReset;
    event.t = t;
    event.window = timeline_.empty() ? 0 : timeline_.back().index;
    events_.push_back(event);
    Registry::global().counter("drift.reference_resets_total").add(1);
  }
  reference_installed_ = true;
  publish_state();
}

void DriftDetector::note_regime_change(double t) {
  pending_regime_t_ = t;
  DriftEvent event;
  event.kind = DriftEvent::Kind::kRegimeChange;
  event.t = t;
  event.window = timeline_.empty() ? 0 : timeline_.back().index;
  events_.push_back(event);
}

const DriftWindow& DriftDetector::observe(std::size_t index, double t_end,
                                          std::span<const double> samples) {
  VARPRED_CHECK(has_reference(), "observe() before set_reference()");
  Registry::global().counter("drift.windows_total").add(1);

  DriftWindow window;
  window.index = index;
  window.t_end = t_end;
  window.n = samples.size();

  if (samples.size() < config_.min_samples) {
    window.skipped = true;
    window.state = state_;
    timeline_.push_back(std::move(window));
    return timeline_.back();
  }

  // The per-window stage name seeds the bootstrap (DiffConfig::seed is
  // combined with the stage name inside diff_stage), so verdicts do not
  // depend on the order windows are observed in.
  window.diff = diff_stage(name_ + "/w" + std::to_string(index), reference_,
                           samples, config_.diff);
  // Direction-free flag: drift cares that the distribution moved, not which
  // way. kImproved is as much a shift as kRegressed, and a significant
  // KS + W1 with an ambiguous median direction (verdict inconclusive, e.g.
  // a variance blow-up) is the *classic* jitter regime switch.
  window.flagged = window.diff.ks_pvalue < config_.diff.alpha &&
                   window.diff.w1_normalized > config_.diff.w1_threshold;

  if (window.flagged) {
    flagged_count_ += 1;
    consecutive_flagged_ += 1;
    consecutive_quiet_ = 0;
    Registry::global().counter("drift.flagged_windows_total").add(1);
    if (state_ == DriftState::kStable) {
      state_ = DriftState::kDrifting;
    }
    if (state_ == DriftState::kDrifting &&
        consecutive_flagged_ >= config_.shift_windows) {
      state_ = DriftState::kShifted;
      shift_count_ += 1;
      Registry::global().counter("drift.shift_events_total").add(1);

      DriftEvent event;
      event.kind = DriftEvent::Kind::kShiftDetected;
      event.t = t_end;
      event.window = index;
      if (pending_regime_t_ >= 0.0) {
        event.latency_seconds = t_end - pending_regime_t_;
        std::size_t windows_since = 0;
        for (const DriftWindow& seen : timeline_) {
          if (seen.t_end > pending_regime_t_) windows_since += 1;
        }
        event.latency_windows = static_cast<double>(windows_since + 1);
        Registry::global()
            .hdr("drift.detection_latency_windows")
            .record(static_cast<std::uint64_t>(event.latency_windows));
        Registry::global()
            .hdr("drift.detection_latency_seconds")
            .record(static_cast<std::uint64_t>(
                std::max(0.0, event.latency_seconds)));
        pending_regime_t_ = -1.0;
      }
      events_.push_back(event);
    }
  } else {
    consecutive_quiet_ += 1;
    consecutive_flagged_ = 0;
    if (state_ != DriftState::kStable &&
        consecutive_quiet_ >= config_.clear_windows) {
      state_ = DriftState::kStable;
      DriftEvent event;
      event.kind = DriftEvent::Kind::kRecovered;
      event.t = t_end;
      event.window = index;
      events_.push_back(event);
      Registry::global().counter("drift.recoveries_total").add(1);
    }
  }

  publish_state();
  window.state = state_;
  timeline_.push_back(std::move(window));
  return timeline_.back();
}

}  // namespace varpred::obs
