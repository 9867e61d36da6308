// varpred::obs — low-overhead tracing and metrics for the prediction
// pipeline.
//
// Three pieces:
//   * Span: an RAII scoped timer with thread-safe hierarchical nesting
//     (per-thread depth tracking, monotonic-clock timestamps). With
//     observability off, constructing a span costs one relaxed atomic load
//     and a branch; nothing is allocated or recorded.
//   * Registry: a lock-striped global table of named counters, gauges,
//     and HDR histograms (obs/hdr.hpp, bounded relative error).
//     Metric objects are never deleted, so hot paths cache a reference once
//     (see VARPRED_OBS_COUNT) and afterwards pay one relaxed fetch_add per
//     event.
//   * Sinks: a Chrome trace_event JSON writer for spans, a flat metrics
//     JSON document, Prometheus text exposition, and a compact text
//     reporter.
//
// The mode is read from the VARPRED_OBS environment variable
// (off | summary | trace, default off) on first use and may be overridden
// programmatically with set_mode() (the bench harnesses map their --obs
// flag onto it). `summary` records metrics and span histograms; `trace`
// additionally buffers every span as a trace event.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"  // PoolStats deltas attached to spans
#include "obs/hdr.hpp"             // tail-accurate histograms in the registry

namespace varpred::obs {

enum class Mode { kOff = 0, kSummary = 1, kTrace = 2 };

/// Parses "off" / "summary" / "trace" (case-sensitive). Returns false and
/// leaves `out` untouched on anything else.
bool parse_mode(std::string_view text, Mode& out);
const char* to_string(Mode mode);

/// Current mode. First call reads VARPRED_OBS; later calls are a relaxed
/// atomic load.
Mode mode() noexcept;
void set_mode(Mode mode) noexcept;
inline bool enabled() noexcept { return mode() != Mode::kOff; }

/// Nanoseconds on the monotonic clock since the process's trace epoch
/// (the first obs call). Small values keep trace timestamps readable.
std::uint64_t now_ns() noexcept;

/// Peak resident set size in kB (VmHWM from /proc/self/status); 0 when the
/// platform does not expose it.
std::size_t peak_rss_kb();

/// Machine hostname (gethostname, then $HOSTNAME, then "unknown"). Part of
/// the environment fingerprint stamped into bench telemetry: timing
/// distributions are only comparable within one machine.
std::string hostname();

/// Current wall-clock time as an ISO-8601 UTC string, second resolution
/// ("2026-08-05T12:34:56Z"). Monotonic timings stay on steady_clock; this
/// exists so telemetry documents and baseline records can be ordered.
std::string iso8601_utc_now();

// ---------------------------------------------------------------------------
// Metric primitives. All operations are thread-safe; counters wrap modulo
// 2^64 (they are deltas over monotone event streams, never clock readings).

class Counter {
 public:
  void add(std::uint64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// ---------------------------------------------------------------------------
// Registry: named metrics behind striped locks. Lookup is a per-stripe
// mutex + map walk; the returned references stay valid for the process
// lifetime (reset_values zeroes, never deletes), so call sites cache them.

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;  // name-sorted
  std::vector<std::pair<std::string, double>> gauges;
  /// Tail-accurate histograms, name-sorted (obs/hdr.hpp).
  std::vector<std::pair<std::string, HdrSnapshot>> hdr;
};

class Registry {
 public:
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// HDR-style log-linear histogram for tail quantiles. The significant
  /// digits apply on first creation; later lookups of the same name return
  /// the existing histogram unchanged.
  HdrHistogram& hdr(std::string_view name, int significant_digits = 2);

  /// Name-sorted copy of every metric's current value.
  MetricsSnapshot snapshot() const;
  /// Zeroes every metric value; references stay valid.
  void reset_values();

 private:
  static constexpr std::size_t kStripes = 16;
  struct Stripe;

  Registry();
  ~Registry();
  Stripe& stripe_for(std::string_view name) const;

  Stripe* stripes_;  // fixed array of kStripes
};

// ---------------------------------------------------------------------------
// Spans and the trace buffer.

struct TraceEvent {
  std::string name;
  std::uint32_t tid = 0;    ///< stable per-thread id, assigned on first span
  std::uint32_t depth = 0;  ///< open spans above this one on the same thread
  /// Request-scoped trace id active when the span closed (0 = none). Written
  /// to the Chrome sink as args.trace, so one request's spans can be
  /// followed across threads.
  std::uint64_t trace_id = 0;
  std::uint64_t start_ns = 0;  ///< since the trace epoch
  std::uint64_t dur_ns = 0;
  std::vector<std::pair<std::string, double>> args;  ///< e.g. pool deltas
};

/// Trace id attached to spans closing on the calling thread (0 = none).
std::uint64_t current_trace_id() noexcept;

/// RAII request-context marker: sets the calling thread's trace id for the
/// scope's lifetime and restores the previous one on exit. The serving path
/// opens one scope per request on the thread that serves it, so all of a
/// request's spans share an id.
class TraceIdScope {
 public:
  explicit TraceIdScope(std::uint64_t id) noexcept;
  ~TraceIdScope();
  TraceIdScope(const TraceIdScope&) = delete;
  TraceIdScope& operator=(const TraceIdScope&) = delete;

 private:
  std::uint64_t prev_;
};

/// RAII scoped timer. In summary/trace mode the destructor records the
/// duration into HDR histogram "span.<name>" (ns); in trace mode it also
/// appends a TraceEvent. Pass kPoolStats to attach the global ThreadPool's
/// counter deltas over the span's lifetime to the trace event. With the
/// mode off the constructor is one relaxed load and a branch, and the
/// destructor a branch on a member.
class Span {
 public:
  enum Flags : unsigned { kNone = 0, kPoolStats = 1u };

  explicit Span(const char* name, unsigned flags = kNone) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const noexcept { return active_; }
  std::uint32_t depth() const noexcept { return depth_; }

  /// Number of spans currently open on the calling thread.
  static std::uint32_t current_depth() noexcept;

 private:
  const char* name_;
  std::uint64_t start_ns_ = 0;
  PoolStats pool_before_{};
  std::uint32_t depth_ = 0;
  bool active_ = false;  ///< mode was on at construction
  bool pool_delta_ = false;
};

/// Copy of the trace buffer (order of insertion = span completion order).
std::vector<TraceEvent> trace_events();

// ---------------------------------------------------------------------------
// Sinks.

/// Chrome trace_event JSON ("ph":"X" complete events, ts/dur in us). Loads
/// in chrome://tracing and Perfetto.
void write_trace_json(std::ostream& out);
std::string trace_json();

/// Flat metrics document: {"counters":{...},"gauges":{...},
/// "hdr":{name:{count,sum,min,max,p50,p90,p99,p999,max_relative_error}}}.
void write_metrics_json(std::ostream& out);
std::string metrics_json();

/// Prometheus text exposition (version 0.0.4) of a snapshot: counters and
/// gauges map directly; HDR histograms become summaries with
/// `{quantile="0.5|0.9|0.99|0.999"}`, `_sum` and `_count` series. Metric
/// names are prefixed "varpred_" and every character outside
/// [a-zA-Z0-9_:] becomes '_'. The server's stats message returns this.
std::string prometheus_text(const MetricsSnapshot& snap);

/// Compact human-readable report of every non-zero metric; empty string
/// when nothing was recorded.
std::string summary_text();

/// Clears the trace buffer and zeroes every registry value (references and
/// thread ids survive). Intended for tests and harness warm-up boundaries.
void reset();

}  // namespace varpred::obs

/// Bumps a named counter with a one-time registry lookup per call site.
/// The branch on enabled() keeps the off-mode cost to a relaxed load.
#define VARPRED_OBS_COUNT(name, delta)                            \
  do {                                                            \
    if (::varpred::obs::enabled()) {                              \
      static ::varpred::obs::Counter& varpred_obs_counter_ =      \
          ::varpred::obs::Registry::global().counter(name);       \
      varpred_obs_counter_.add(delta);                            \
    }                                                             \
  } while (0)

/// Records a value into a named HDR histogram (same caching scheme).
#define VARPRED_OBS_HIST(name, value)                             \
  do {                                                            \
    if (::varpred::obs::enabled()) {                              \
      static ::varpred::obs::HdrHistogram& varpred_obs_hist_ =    \
          ::varpred::obs::Registry::global().hdr(name);           \
      varpred_obs_hist_.record(value);                            \
    }                                                             \
  } while (0)
