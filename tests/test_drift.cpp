// Tests for the online drift detector: hysteresis state machine, detection
// events and latency accounting, reference resets (refits), and
// determinism of the replayed timeline.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "obs/drift.hpp"

namespace varpred {
namespace {

std::vector<double> uniform_draw(std::uint64_t seed, std::size_t n,
                                 double lo = 0.0, double hi = 1.0) {
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.uniform(lo, hi));
  return out;
}

obs::DriftDetector make_detector(const std::string& name) {
  obs::DriftDetector det(name);
  det.set_reference(uniform_draw(1, 512), 0.0);
  return det;
}

constexpr std::size_t kWindowN = 64;

TEST(DriftDetector, StationaryStreamNeverReportsShifted) {
  auto det = make_detector("t.stationary");
  for (std::size_t w = 0; w < 30; ++w) {
    det.observe(w, static_cast<double>(w + 1),
                uniform_draw(100 + w, kWindowN));
    EXPECT_NE(det.state(), obs::DriftState::kShifted) << "window " << w;
  }
  EXPECT_EQ(det.shift_count(), 0u);
  EXPECT_EQ(det.windows_observed(), 30u);
}

TEST(DriftDetector, HysteresisRequiresConsecutiveFlagsBeforeShifted) {
  auto det = make_detector("t.hysteresis");
  // Default shift_windows = 3: two shifted windows are only "drifting".
  const double shift = 0.4;
  det.observe(0, 1.0, uniform_draw(200, kWindowN, shift, 1.0 + shift));
  EXPECT_EQ(det.state(), obs::DriftState::kDrifting);
  det.observe(1, 2.0, uniform_draw(201, kWindowN, shift, 1.0 + shift));
  EXPECT_EQ(det.state(), obs::DriftState::kDrifting);
  det.observe(2, 3.0, uniform_draw(202, kWindowN, shift, 1.0 + shift));
  EXPECT_EQ(det.state(), obs::DriftState::kShifted);
  EXPECT_EQ(det.shift_count(), 1u);
  EXPECT_EQ(det.flagged_count(), 3u);

  // A single quiet window does not clear; clear_windows = 3 do.
  det.observe(3, 4.0, uniform_draw(203, kWindowN));
  EXPECT_EQ(det.state(), obs::DriftState::kShifted);
  det.observe(4, 5.0, uniform_draw(204, kWindowN));
  det.observe(5, 6.0, uniform_draw(205, kWindowN));
  EXPECT_EQ(det.state(), obs::DriftState::kStable);

  bool recovered = false;
  for (const auto& event : det.events()) {
    recovered |= event.kind == obs::DriftEvent::Kind::kRecovered;
  }
  EXPECT_TRUE(recovered);
}

TEST(DriftDetector, DetectionLatencyIsMeasuredFromRegimeChange) {
  auto det = make_detector("t.latency");
  // Two quiet windows, then the ground-truth regime change, then the
  // drifted windows. Detection fires on the 3rd flagged window: latency
  // is 3 windows / (detection t - change t) seconds.
  det.observe(0, 1800.0, uniform_draw(300, kWindowN));
  det.observe(1, 3600.0, uniform_draw(301, kWindowN));
  det.note_regime_change(3700.0);
  const double shift = 0.4;
  det.observe(2, 5400.0, uniform_draw(302, kWindowN, shift, 1.0 + shift));
  det.observe(3, 7200.0, uniform_draw(303, kWindowN, shift, 1.0 + shift));
  det.observe(4, 9000.0, uniform_draw(304, kWindowN, shift, 1.0 + shift));
  EXPECT_EQ(det.state(), obs::DriftState::kShifted);

  const obs::DriftEvent* detection = nullptr;
  for (const auto& event : det.events()) {
    if (event.kind == obs::DriftEvent::Kind::kShiftDetected) {
      detection = &event;
    }
  }
  ASSERT_NE(detection, nullptr);
  EXPECT_EQ(detection->window, 4u);
  EXPECT_DOUBLE_EQ(detection->latency_windows, 3.0);
  EXPECT_DOUBLE_EQ(detection->latency_seconds, 9000.0 - 3700.0);
}

TEST(DriftDetector, WithoutGroundTruthLatencyStaysNegative) {
  auto det = make_detector("t.nogt");
  const double shift = 0.4;
  for (std::size_t w = 0; w < 3; ++w) {
    det.observe(w, static_cast<double>(w + 1),
                uniform_draw(400 + w, kWindowN, shift, 1.0 + shift));
  }
  ASSERT_EQ(det.shift_count(), 1u);
  for (const auto& event : det.events()) {
    if (event.kind == obs::DriftEvent::Kind::kShiftDetected) {
      EXPECT_LT(event.latency_windows, 0.0);
      EXPECT_LT(event.latency_seconds, 0.0);
    }
  }
}

TEST(DriftDetector, ReferenceResetModelsARefit) {
  auto det = make_detector("t.refit");
  const double shift = 0.4;
  for (std::size_t w = 0; w < 3; ++w) {
    det.observe(w, static_cast<double>(w + 1),
                uniform_draw(500 + w, kWindowN, shift, 1.0 + shift));
  }
  ASSERT_EQ(det.state(), obs::DriftState::kShifted);

  // Refit: the new reference *is* the shifted distribution, so subsequent
  // windows from it read stable again.
  det.set_reference(uniform_draw(2, 512, shift, 1.0 + shift), 4.0);
  EXPECT_EQ(det.state(), obs::DriftState::kStable);
  bool reset_event = false;
  for (const auto& event : det.events()) {
    reset_event |= event.kind == obs::DriftEvent::Kind::kReferenceReset;
  }
  EXPECT_TRUE(reset_event);

  for (std::size_t w = 3; w < 10; ++w) {
    det.observe(w, static_cast<double>(w + 1),
                uniform_draw(600 + w, kWindowN, shift, 1.0 + shift));
  }
  EXPECT_EQ(det.state(), obs::DriftState::kStable);
  EXPECT_EQ(det.shift_count(), 1u);
}

TEST(DriftDetector, UndersizedWindowsAreSkippedWithoutStateChange) {
  auto det = make_detector("t.skip");
  const double shift = 0.4;
  det.observe(0, 1.0, uniform_draw(700, kWindowN, shift, 1.0 + shift));
  ASSERT_EQ(det.state(), obs::DriftState::kDrifting);
  // min_samples defaults to 8; a 3-sample window neither flags nor clears.
  const auto& skipped = det.observe(1, 2.0, uniform_draw(701, 3));
  EXPECT_TRUE(skipped.skipped);
  EXPECT_EQ(skipped.state, obs::DriftState::kDrifting);
  EXPECT_EQ(det.state(), obs::DriftState::kDrifting);
}

TEST(DriftDetector, RequiresReferenceAndSufficientReference) {
  obs::DriftDetector det("t.noref");
  EXPECT_THROW(det.observe(0, 1.0, uniform_draw(1, kWindowN)), CheckError);
  EXPECT_THROW(det.set_reference(uniform_draw(1, 3), 0.0),
               std::invalid_argument);
}

TEST(DriftDetector, ReplayedTimelineIsByteIdentical) {
  const auto replay = [](const std::string& name) {
    obs::DriftDetector det(name);
    det.set_reference(uniform_draw(1, 512), 0.0);
    det.note_regime_change(2.5);
    for (std::size_t w = 0; w < 8; ++w) {
      const double shift = w >= 3 ? 0.4 : 0.0;
      det.observe(w, static_cast<double>(w + 1),
                  uniform_draw(800 + w, kWindowN, shift, 1.0 + shift));
    }
    return det;
  };
  const auto a = replay("t.replay");
  const auto b = replay("t.replay");
  ASSERT_EQ(a.timeline().size(), b.timeline().size());
  for (std::size_t i = 0; i < a.timeline().size(); ++i) {
    EXPECT_EQ(a.timeline()[i].diff.ks_pvalue, b.timeline()[i].diff.ks_pvalue);
    EXPECT_EQ(a.timeline()[i].diff.w1_normalized,
              b.timeline()[i].diff.w1_normalized);
    EXPECT_EQ(a.timeline()[i].flagged, b.timeline()[i].flagged);
    EXPECT_EQ(a.timeline()[i].state, b.timeline()[i].state);
  }
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].latency_windows, b.events()[i].latency_windows);
  }
}

TEST(EnumNames, OutOfRangeDriftStateThrows) {
  EXPECT_THROW(obs::to_string(static_cast<obs::DriftState>(99)),
               std::invalid_argument);
}

TEST(EnumNames, OutOfRangeDriftEventKindThrows) {
  EXPECT_THROW(obs::to_string(static_cast<obs::DriftEvent::Kind>(99)),
               std::invalid_argument);
}

}  // namespace
}  // namespace varpred
