#include "measure/fleet.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace varpred::measure {

const char* to_string(DriftKind kind) {
  switch (kind) {
    case DriftKind::kStationary:
      return "stationary";
    case DriftKind::kNoisyNeighbor:
      return "neighbor";
    case DriftKind::kBurstable:
      return "burstable";
    case DriftKind::kThermalRamp:
      return "thermal";
  }
  VARPRED_CHECK_ARG(false, "unknown drift kind");
}

bool parse_drift_kind(const std::string& name, DriftKind* out) {
  if (name == "stationary") *out = DriftKind::kStationary;
  else if (name == "neighbor") *out = DriftKind::kNoisyNeighbor;
  else if (name == "burstable") *out = DriftKind::kBurstable;
  else if (name == "thermal") *out = DriftKind::kThermalRamp;
  else return false;
  return true;
}

FleetSystem::FleetSystem(const SystemModel& system, FleetTraceConfig config)
    : system_(&system), config_(config) {
  VARPRED_CHECK_ARG(config_.duration_seconds > 0.0,
                    "trace duration must be positive");
  VARPRED_CHECK_ARG(config_.severity >= 1.0, "severity must be >= 1");
  // Episode geometry is drawn once from the trace seed; condition_at is
  // then a pure function of t.
  Rng rng(seed_combine(config_.seed,
                       seed_combine(stable_hash(system.name()),
                                    stable_hash(to_string(config_.kind)))));
  const double d = config_.duration_seconds;
  switch (config_.kind) {
    case DriftKind::kStationary:
      break;
    case DriftKind::kNoisyNeighbor:
      // The neighbor arrives somewhere in the first half of the trace
      // (but after a calibration-sized prefix) and stays to the end: the
      // canonical persistent regime switch.
      onset_ = d * (0.30 + 0.15 * rng.uniform());
      regime_changes_.push_back(onset_);
      break;
    case DriftKind::kBurstable:
      // CPU credits run out, then the hypervisor alternates throttled and
      // recovery phases.
      onset_ = d * (0.25 + 0.15 * rng.uniform());
      cycle_seconds_ = 3600.0 * (0.75 + 0.5 * rng.uniform());
      throttled_seconds_ = cycle_seconds_ * 0.75;
      regime_changes_.push_back(onset_);
      break;
    case DriftKind::kThermalRamp:
      // A slow, smooth heat-up: detection-wise the change has no sharp
      // edge, so the onset is the documented ground-truth time.
      onset_ = d * (0.25 + 0.15 * rng.uniform());
      ramp_seconds_ = d * 0.35;
      regime_changes_.push_back(onset_);
      break;
  }
}

SystemCondition FleetSystem::condition_at(double t) const {
  SystemCondition cond;
  const double sev = config_.severity;
  switch (config_.kind) {
    case DriftKind::kStationary:
      break;
    case DriftKind::kNoisyNeighbor:
      if (t >= onset_) {
        cond.jitter_scale = sev;
        cond.tail_scale = 1.0 + 0.5 * (sev - 1.0);
        cond.interference = std::min(1.0, 0.5 * sev - 0.25);
      }
      break;
    case DriftKind::kBurstable:
      if (t >= onset_) {
        const double phase = std::fmod(t - onset_, cycle_seconds_);
        if (phase < throttled_seconds_) {
          cond.speed_scale = 0.65;
          cond.jitter_scale = 1.0 + 0.75 * (sev - 1.0);
          cond.tail_scale = 1.25;
        }
      }
      break;
    case DriftKind::kThermalRamp: {
      const double f =
          std::clamp((t - onset_) / ramp_seconds_, 0.0, 1.0);
      if (f > 0.0) {
        cond.jitter_scale = 1.0 + (sev - 1.0) * f;
        cond.tail_scale = 1.0 + 0.4 * (sev - 1.0) * f;
        cond.speed_scale = 1.0 - 0.05 * f;
      }
      break;
    }
  }
  return cond;
}

RunRecord simulate_run_at(const BenchmarkInfo& bench, const FleetSystem& fleet,
                          double t, Rng& rng) {
  return simulate_run(bench, fleet.system(), fleet.condition_at(t), rng);
}

}  // namespace varpred::measure
