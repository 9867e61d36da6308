// Periodic metrics exposition for long-running processes.
//
// The bench harnesses snapshot the registry once, at exit. A daemon (the
// ROADMAP's varpredd) needs the opposite: a scrape surface that stays
// fresh while the process runs. This module renders a MetricsSnapshot in
// two wire formats and, optionally, runs a background exporter thread that
// re-renders on a fixed period:
//
//   * Prometheus text exposition (version 0.0.4): counters and gauges map
//     directly; HDR histograms become summaries with
//     `{quantile="0.5|0.9|0.99|0.999"}`, `_sum` and `_count` series (the
//     quantiles carry the histogram's relative-error bound). The file is
//     replaced atomically (write to <path>.tmp, then rename), so a scraper
//     reading via node_exporter's textfile collector never sees a torn
//     document.
//   * JSONL time series: one `{"time": <iso8601>, "metrics": {...}}` line
//     appended per period — the longitudinal monitoring stream the paper's
//     related work (Costello & Bhatele) predicts from.
//
// Activation mirrors VARPRED_OBS: set VARPRED_OBS_EXPOSE to
// "prom:PATH[:PERIOD_MS]" or "jsonl:PATH[:PERIOD_MS]" (period defaults to
// 1000 ms) and bench::Run starts/stops the exporter around the harness
// body, or call exporter_start/exporter_stop directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/obs.hpp"

namespace varpred::obs {

enum class ExpositionFormat { kPrometheus, kJsonl };

struct ExposeSpec {
  ExpositionFormat format = ExpositionFormat::kPrometheus;
  std::string path;
  std::chrono::milliseconds period{1000};
};

/// Parses "prom:PATH[:PERIOD_MS]" / "jsonl:PATH[:PERIOD_MS]". The period
/// suffix is recognized only when the text after the last ':' is all
/// digits (so paths containing ':' still work as long as their final
/// segment is not purely numeric); it is clamped to [10, 3600000] ms.
/// Returns false (out untouched) on an unknown format tag or empty path.
bool parse_expose_spec(std::string_view text, ExposeSpec& out);

/// Renders the snapshot in Prometheus text exposition format. Metric names
/// are prefixed "varpred_" and sanitized ([a-zA-Z0-9_:], '.' -> '_').
std::string prometheus_text(const MetricsSnapshot& snap);

/// One JSONL record: {"time":"<iso8601 utc>","uptime_ns":N,"metrics":{...}}
/// with no internal newlines.
std::string jsonl_snapshot_line(const MetricsSnapshot& snap);

/// Renders `snap` to `spec.path` once: Prometheus replaces the file
/// atomically (tmp + rename); JSONL appends one line. Returns false when
/// the file cannot be written.
bool write_exposition(const MetricsSnapshot& snap, const ExposeSpec& spec);

/// Starts the background exporter (one per process): every `spec.period`
/// it snapshots the global registry and calls write_exposition. Returns
/// false if an exporter is already running or the first write fails (bad
/// path — better to fail at start than to spin on a dead sink).
bool exporter_start(const ExposeSpec& spec);

bool exporter_running() noexcept;

/// Successful write_exposition calls by the most recent run (including the
/// start probe and the final flush; persists after exporter_stop).
std::uint64_t exporter_write_count() noexcept;

/// Stops the exporter after one final write, so the sink always holds the
/// end-of-run state. No-op when none is running.
void exporter_stop();

/// Reads VARPRED_OBS_EXPOSE and starts the exporter when it holds a valid
/// spec. Returns true when an exporter was started; warns on stderr (and
/// returns false) when the variable is set but malformed.
bool maybe_start_exporter_from_env();

}  // namespace varpred::obs
