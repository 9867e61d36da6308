// HDR-style log-linear histogram for tail-accurate latency telemetry.
//
// The one histogram of the metrics registry: spans, VARPRED_OBS_HIST and
// the serving path's latency sketches all record here. A plain log2 bucket
// scheme would put a reported p99 up to 2x off; HdrHistogram keeps the O(1)
// lock-free record but bounds the relative error: values below 2^k are
// stored exactly (one slot per value), and every doubling above that is
// split into 2^(k-1) linear sub-slots, so a slot's width is at most
// lo * 2^-(k-1). k is derived from the requested number of significant
// decimal digits sd via k = ceil(log2(2 * 10^sd)) — the same guarantee
// hdrhistogram.org makes: sd=2 (the default) gives k=8 and <=1/128 (~0.8%)
// relative error at ~58 KB per histogram.
//
// Concurrency model: record() is wait-free (relaxed fetch_add on the slot,
// count, and sum; relaxed CAS loops on min/max). snapshot() is a relaxed
// sweep — counts recorded concurrently with a snapshot may or may not be
// included, but every count lands in exactly one snapshot eventually
// (monotone slots). Quantile queries and merges operate on snapshots, so
// they never block recorders.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace varpred::obs {

/// Slot index math for a given sub-bucket bit count k, shared by the live
/// histogram and its snapshots. Values below 2^k map to one slot each
/// (exact); a value with bit width w > k maps into the (w - k)'th doubling,
/// which is divided into 2^(k-1) equal slots.
struct HdrLayout {
  int sub_bits = 8;  ///< k

  /// 2^k exact slots plus 2^(k-1) linear slots per doubling above them.
  std::size_t slot_count() const noexcept {
    return (std::size_t{1} << sub_bits) +
           static_cast<std::size_t>(64 - sub_bits) *
               (std::size_t{1} << (sub_bits - 1));
  }

  std::size_t index(std::uint64_t value) const noexcept;
  /// Smallest value landing in slot `i`.
  std::uint64_t slot_lo(std::size_t i) const noexcept;
  /// Largest value landing in slot `i` (inclusive).
  std::uint64_t slot_hi(std::size_t i) const noexcept;
  /// Worst-case (hi - lo) / lo over all slots: 2^-(k-1) (exact slots below
  /// 2^k contribute zero error).
  double max_relative_error() const noexcept;
};

/// Sub-bucket bits for `significant_digits` decimal digits of quantile
/// accuracy (clamped to [1, 5]): ceil(log2(2 * 10^sd)).
int hdr_sub_bits(int significant_digits) noexcept;

/// Plain (non-atomic) copy of a histogram's state. Quantiles, merges, and
/// serialization all happen here so the hot recording path stays wait-free.
struct HdrSnapshot {
  HdrLayout layout;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< exact smallest recorded value (0 when empty)
  std::uint64_t max = 0;  ///< exact largest recorded value (0 when empty)
  /// (slot index, count) for every non-empty slot, ascending by index.
  std::vector<std::pair<std::size_t, std::uint64_t>> slots;

  /// Exact-bound quantile: the inclusive upper bound of the slot holding
  /// the rank-ceil(q * count) smallest recorded value, clamped to
  /// [min, max]. Guarantees hdr_q >= exact_q and
  /// (hdr_q - exact_q) <= max_relative_error() * exact_q. Returns 0 on an
  /// empty snapshot; q is clamped to [0, 1].
  std::uint64_t quantile(double q) const noexcept;

  /// Accumulates `other` into this snapshot. Layouts must match (same
  /// sub_bits); throws std::invalid_argument otherwise.
  void merge(const HdrSnapshot& other);
};

class HdrHistogram {
 public:
  /// Default: 2 significant digits, <=1/128 relative error.
  explicit HdrHistogram(int significant_digits = 2);

  HdrHistogram(const HdrHistogram&) = delete;
  HdrHistogram& operator=(const HdrHistogram&) = delete;

  int significant_digits() const noexcept { return significant_digits_; }
  const HdrLayout& layout() const noexcept { return layout_; }
  double max_relative_error() const noexcept {
    return layout_.max_relative_error();
  }

  /// Wait-free; safe from any thread.
  void record(std::uint64_t value) noexcept { record_n(value, 1); }
  void record_n(std::uint64_t value, std::uint64_t n) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  HdrSnapshot snapshot() const;
  /// Convenience: snapshot().quantile(q).
  std::uint64_t quantile(double q) const { return snapshot().quantile(q); }

  /// Zeroes every slot; concurrent recorders may interleave (intended for
  /// tests and harness epoch boundaries, like the registry's reset).
  void reset() noexcept;

 private:
  int significant_digits_;
  HdrLayout layout_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace varpred::obs
