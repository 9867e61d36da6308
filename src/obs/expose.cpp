#include "obs/expose.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/json.hpp"

namespace varpred::obs {
namespace {

/// "varpred_" + name with every character outside [a-zA-Z0-9_:] mapped to
/// '_' (Prometheus metric-name alphabet; the prefix guarantees a valid
/// first character).
std::string prom_name(std::string_view name) {
  std::string out = "varpred_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

bool all_digits(std::string_view text) {
  if (text.empty()) return false;
  return std::all_of(text.begin(), text.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

struct Exporter {
  std::mutex mutex;
  std::condition_variable cv;
  std::thread thread;
  bool running = false;
  bool stop_requested = false;
  ExposeSpec spec;
  std::atomic<std::uint64_t> writes{0};
};

Exporter& exporter() {
  static Exporter* e = new Exporter();  // leaked: outlive statics
  return *e;
}

void exporter_loop(ExposeSpec spec) {
  Exporter& e = exporter();
  auto next = std::chrono::steady_clock::now() + spec.period;
  std::unique_lock lock(e.mutex);
  while (true) {
    if (e.cv.wait_until(lock, next, [&] { return e.stop_requested; })) {
      return;  // exporter_stop performs the final write after joining
    }
    lock.unlock();
    if (write_exposition(Registry::global().snapshot(), spec)) {
      e.writes.fetch_add(1, std::memory_order_relaxed);
    }
    lock.lock();
    next += spec.period;
    const auto now = std::chrono::steady_clock::now();
    if (next < now) next = now + spec.period;  // skip missed ticks
  }
}

}  // namespace

bool parse_expose_spec(std::string_view text, ExposeSpec& out) {
  ExposeSpec spec;
  if (text.rfind("prom:", 0) == 0) {
    spec.format = ExpositionFormat::kPrometheus;
    text.remove_prefix(5);
  } else if (text.rfind("jsonl:", 0) == 0) {
    spec.format = ExpositionFormat::kJsonl;
    text.remove_prefix(6);
  } else {
    return false;
  }
  const std::size_t colon = text.rfind(':');
  if (colon != std::string_view::npos && all_digits(text.substr(colon + 1))) {
    const unsigned long long ms =
        std::strtoull(std::string(text.substr(colon + 1)).c_str(), nullptr,
                      10);
    spec.period = std::chrono::milliseconds(
        std::clamp<unsigned long long>(ms, 10, 3600000));
    text = text.substr(0, colon);
  }
  if (text.empty()) return false;
  spec.path = std::string(text);
  out = std::move(spec);
  return true;
}

std::string prometheus_text(const MetricsSnapshot& snap) {
  std::ostringstream out;
  for (const auto& [name, value] : snap.counters) {
    const std::string p = prom_name(name);
    out << "# TYPE " << p << " counter\n" << p << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string p = prom_name(name);
    out << "# TYPE " << p << " gauge\n"
        << p << " " << json::number(value) << "\n";
  }
  for (const auto& [name, h] : snap.hdr) {
    const std::string p = prom_name(name);
    out << "# TYPE " << p << " summary\n";
    static constexpr double kQuantiles[] = {0.5, 0.9, 0.99, 0.999};
    static constexpr const char* kLabels[] = {"0.5", "0.9", "0.99", "0.999"};
    for (std::size_t i = 0; i < 4; ++i) {
      out << p << "{quantile=\"" << kLabels[i] << "\"} "
          << h.quantile(kQuantiles[i]) << "\n";
    }
    out << p << "_sum " << h.sum << "\n" << p << "_count " << h.count << "\n";
  }
  return out.str();
}

std::string jsonl_snapshot_line(const MetricsSnapshot& snap) {
  std::ostringstream out;
  out << "{\"time\":\"" << json::escape(iso8601_utc_now())
      << "\",\"uptime_ns\":" << now_ns() << ",\"metrics\":";
  write_metrics_json(out, snap);
  out << "}";
  return out.str();
}

bool write_exposition(const MetricsSnapshot& snap, const ExposeSpec& spec) {
  if (spec.format == ExpositionFormat::kJsonl) {
    std::ofstream out(spec.path, std::ios::app);
    if (!out) return false;
    out << jsonl_snapshot_line(snap) << "\n";
    return static_cast<bool>(out);
  }
  // Prometheus: atomic replace so scrapers never read a torn file.
  const std::string tmp = spec.path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << prometheus_text(snap);
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), spec.path.c_str()) == 0;
}

bool exporter_start(const ExposeSpec& spec) {
  Exporter& e = exporter();
  std::lock_guard lock(e.mutex);
  if (e.running) return false;
  // Probe the sink once up front: failing at start beats a background
  // thread spinning on an unwritable path.
  if (!write_exposition(Registry::global().snapshot(), spec)) return false;
  e.running = true;
  e.stop_requested = false;
  e.spec = spec;
  e.writes.store(1, std::memory_order_relaxed);
  e.thread = std::thread(exporter_loop, spec);
  return true;
}

bool exporter_running() noexcept {
  Exporter& e = exporter();
  std::lock_guard lock(e.mutex);
  return e.running;
}

std::uint64_t exporter_write_count() noexcept {
  return exporter().writes.load(std::memory_order_relaxed);
}

void exporter_stop() {
  Exporter& e = exporter();
  std::thread worker;
  ExposeSpec spec;
  {
    std::lock_guard lock(e.mutex);
    if (!e.running) return;
    e.stop_requested = true;
    worker = std::move(e.thread);
    spec = e.spec;
  }
  e.cv.notify_all();
  worker.join();
  // Final write: the sink ends holding the end-of-run state.
  if (write_exposition(Registry::global().snapshot(), spec)) {
    e.writes.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard lock(e.mutex);
  e.running = false;
}

bool maybe_start_exporter_from_env() {
  const char* raw = std::getenv("VARPRED_OBS_EXPOSE");
  if (raw == nullptr || raw[0] == '\0') return false;
  ExposeSpec spec;
  if (!parse_expose_spec(raw, spec)) {
    std::fprintf(stderr,
                 "[obs] VARPRED_OBS_EXPOSE=%s is not "
                 "prom:PATH[:PERIOD_MS] / jsonl:PATH[:PERIOD_MS]; ignored\n",
                 raw);
    return false;
  }
  if (!exporter_start(spec)) {
    std::fprintf(stderr, "[obs] cannot start exporter for %s\n", raw);
    return false;
  }
  return true;
}

}  // namespace varpred::obs
