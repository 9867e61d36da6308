#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>

#if defined(__linux__) || defined(__unix__) || defined(__APPLE__)
#include <unistd.h>  // gethostname
#endif

#include "common/check.hpp"
#include "obs/json.hpp"

namespace varpred::obs {
namespace {

Mode env_mode() {
  const char* raw = std::getenv("VARPRED_OBS");
  Mode m = Mode::kOff;
  if (raw != nullptr) parse_mode(raw, m);
  return m;
}

std::atomic<Mode>& mode_cell() noexcept {
  // Initialized from the environment exactly once; set_mode overwrites it.
  static std::atomic<Mode> cell{env_mode()};
  return cell;
}

std::chrono::steady_clock::time_point trace_epoch() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

// Stable small per-thread ids for trace events.
std::uint32_t this_thread_id() noexcept {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

thread_local std::uint32_t t_open_spans = 0;

// Request-scoped trace id (serving path). 0 means "no request context";
// TraceIdScope saves/restores it so nested scopes unwind correctly.
thread_local std::uint64_t t_trace_id = 0;

// Global trace buffer. Span completion is stage-grained, so one mutex is
// plenty; the cap is a runaway guard (dropped events are counted).
constexpr std::size_t kMaxTraceEvents = 1u << 20;

struct TraceBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
};

TraceBuffer& trace_buffer() {
  static TraceBuffer* buffer = new TraceBuffer();  // leaked: outlive statics
  return *buffer;
}

}  // namespace

bool parse_mode(std::string_view text, Mode& out) {
  if (text == "off") {
    out = Mode::kOff;
  } else if (text == "summary") {
    out = Mode::kSummary;
  } else if (text == "trace") {
    out = Mode::kTrace;
  } else {
    return false;
  }
  return true;
}

const char* to_string(Mode mode) {
  switch (mode) {
    case Mode::kOff:
      return "off";
    case Mode::kSummary:
      return "summary";
    case Mode::kTrace:
      return "trace";
  }
  VARPRED_CHECK_ARG(false, "unknown observability mode");
}

Mode mode() noexcept {
  return mode_cell().load(std::memory_order_relaxed);
}

void set_mode(Mode mode) noexcept {
  mode_cell().store(mode, std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - trace_epoch())
          .count());
}

std::size_t peak_rss_kb() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = static_cast<std::size_t>(std::strtoull(line + 6, nullptr, 10));
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  return 0;
#endif
}

std::string hostname() {
#if defined(__linux__) || defined(__unix__) || defined(__APPLE__)
  char buf[256];
  if (::gethostname(buf, sizeof buf) == 0) {
    buf[sizeof buf - 1] = '\0';
    if (buf[0] != '\0') return buf;
  }
#endif
  const char* env = std::getenv("HOSTNAME");
  return env != nullptr && env[0] != '\0' ? env : "unknown";
}

std::string iso8601_utc_now() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  const std::size_t len = std::strftime(buf, sizeof buf, "%FT%TZ", &tm);
  return std::string(buf, len);
}

// ---------------------------------------------------------------------------
// Registry

struct Registry::Stripe {
  mutable std::mutex mutex;
  // std::map keeps each stripe name-sorted; unique_ptr gives the metric
  // objects a stable address across rehashing-free inserts.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<HdrHistogram>, std::less<>> hdrs;
};

Registry::Registry() : stripes_(new Stripe[kStripes]) {}
Registry::~Registry() { delete[] stripes_; }

Registry& Registry::global() {
  static Registry* registry = new Registry();  // leaked: outlive statics
  return *registry;
}

Registry::Stripe& Registry::stripe_for(std::string_view name) const {
  // FNV-1a over the name; only stripe selection, not exposed.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return stripes_[h % kStripes];
}

Counter& Registry::counter(std::string_view name) {
  Stripe& s = stripe_for(name);
  std::lock_guard lock(s.mutex);
  auto it = s.counters.find(name);
  if (it == s.counters.end()) {
    it = s.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  Stripe& s = stripe_for(name);
  std::lock_guard lock(s.mutex);
  auto it = s.gauges.find(name);
  if (it == s.gauges.end()) {
    it = s.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

HdrHistogram& Registry::hdr(std::string_view name, int significant_digits) {
  Stripe& s = stripe_for(name);
  std::lock_guard lock(s.mutex);
  auto it = s.hdrs.find(name);
  if (it == s.hdrs.end()) {
    it = s.hdrs
             .emplace(std::string(name),
                      std::make_unique<HdrHistogram>(significant_digits))
             .first;
  }
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot out;
  for (std::size_t i = 0; i < kStripes; ++i) {
    const Stripe& s = stripes_[i];
    std::lock_guard lock(s.mutex);
    for (const auto& [name, c] : s.counters) {
      out.counters.emplace_back(name, c->value());
    }
    for (const auto& [name, g] : s.gauges) {
      out.gauges.emplace_back(name, g->value());
    }
    for (const auto& [name, h] : s.hdrs) {
      out.hdr.emplace_back(name, h->snapshot());
    }
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.hdr.begin(), out.hdr.end(), by_name);
  return out;
}

void Registry::reset_values() {
  for (std::size_t i = 0; i < kStripes; ++i) {
    Stripe& s = stripes_[i];
    std::lock_guard lock(s.mutex);
    for (auto& [name, c] : s.counters) c->reset();
    for (auto& [name, g] : s.gauges) g->reset();
    for (auto& [name, h] : s.hdrs) h->reset();
  }
}

// ---------------------------------------------------------------------------
// Span

Span::Span(const char* name, unsigned flags) noexcept : name_(name) {
  if (mode() == Mode::kOff) return;  // the one-load fast path
  active_ = true;
  depth_ = t_open_spans++;
  pool_delta_ = (flags & kPoolStats) != 0;
  if (pool_delta_) pool_before_ = ThreadPool::global().stats();
  start_ns_ = now_ns();
}

Span::~Span() {
  if (!active_) return;
  const std::uint64_t end_ns = now_ns();
  --t_open_spans;
  const Mode m = mode();
  if (m == Mode::kOff) return;  // switched off mid-span: just unwind depth

  const std::uint64_t dur = end_ns - start_ns_;
  Registry::global().hdr(std::string("span.") + name_).record(dur);

  if (m != Mode::kTrace) return;
  TraceEvent event;
  event.name = name_;
  event.tid = this_thread_id();
  event.depth = depth_;
  event.trace_id = t_trace_id;
  event.start_ns = start_ns_;
  event.dur_ns = dur;
  if (pool_delta_) {
    const PoolStats after = ThreadPool::global().stats();
    event.args.emplace_back(
        "pool.jobs", static_cast<double>(after.jobs - pool_before_.jobs));
    event.args.emplace_back(
        "pool.chunks",
        static_cast<double>(after.chunks - pool_before_.chunks));
    event.args.emplace_back(
        "pool.iterations",
        static_cast<double>(after.iterations - pool_before_.iterations));
    event.args.emplace_back(
        "pool.busy_ms",
        static_cast<double>(after.busy_ns - pool_before_.busy_ns) * 1e-6);
    event.args.emplace_back(
        "pool.idle_ms",
        static_cast<double>(after.idle_ns - pool_before_.idle_ns) * 1e-6);
  }
  TraceBuffer& buffer = trace_buffer();
  std::lock_guard lock(buffer.mutex);
  if (buffer.events.size() >= kMaxTraceEvents) {
    ++buffer.dropped;
    return;
  }
  buffer.events.push_back(std::move(event));
}

std::uint32_t Span::current_depth() noexcept { return t_open_spans; }

std::uint64_t current_trace_id() noexcept { return t_trace_id; }

TraceIdScope::TraceIdScope(std::uint64_t id) noexcept : prev_(t_trace_id) {
  t_trace_id = id;
}

TraceIdScope::~TraceIdScope() { t_trace_id = prev_; }

std::vector<TraceEvent> trace_events() {
  TraceBuffer& buffer = trace_buffer();
  std::lock_guard lock(buffer.mutex);
  return buffer.events;
}

// ---------------------------------------------------------------------------
// Sinks

void write_trace_json(std::ostream& out) {
  const auto events = trace_events();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& e : events) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json::escape(e.name)
        << "\",\"cat\":\"varpred\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
        << ",\"ts\":" << json::number(static_cast<double>(e.start_ns) * 1e-3)
        << ",\"dur\":" << json::number(static_cast<double>(e.dur_ns) * 1e-3)
        << ",\"args\":{\"depth\":" << e.depth;
    if (e.trace_id != 0) {
      // Hex string, not a JSON number: 64-bit ids do not survive the
      // double round-trip Chrome applies to numeric args.
      char hex[19];
      std::snprintf(hex, sizeof(hex), "0x%016llx",
                    static_cast<unsigned long long>(e.trace_id));
      out << ",\"trace\":\"" << hex << "\"";
    }
    for (const auto& [key, value] : e.args) {
      out << ",\"" << json::escape(key) << "\":" << json::number(value);
    }
    out << "}}";
  }
  out << "]}";
}

std::string trace_json() {
  std::ostringstream out;
  write_trace_json(out);
  return out.str();
}

void write_metrics_json(std::ostream& out) {
  const MetricsSnapshot snap = Registry::global().snapshot();
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json::escape(name) << "\":" << value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json::escape(name) << "\":" << json::number(value);
  }
  out << "},\"hdr\":{";
  first = true;
  for (const auto& [name, h] : snap.hdr) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json::escape(name) << "\":{\"count\":" << h.count
        << ",\"sum\":" << h.sum << ",\"min\":" << h.min << ",\"max\":" << h.max
        << ",\"p50\":" << h.quantile(0.50) << ",\"p90\":" << h.quantile(0.90)
        << ",\"p99\":" << h.quantile(0.99)
        << ",\"p999\":" << h.quantile(0.999)
        << ",\"max_relative_error\":"
        << json::number(h.layout.max_relative_error()) << "}";
  }
  out << "}}";
}

std::string metrics_json() {
  std::ostringstream out;
  write_metrics_json(out);
  return out.str();
}

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

}  // namespace

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

std::string summary_text() {
  const auto snap = Registry::global().snapshot();
  std::ostringstream out;
  for (const auto& [name, value] : snap.counters) {
    if (value == 0) continue;
    out << "[obs] " << name << " = " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    if (value == 0.0) continue;
    out << "[obs] " << name << " = " << json::number(value) << "\n";
  }
  for (const auto& [name, h] : snap.hdr) {
    if (h.count == 0) continue;
    const double mean =
        static_cast<double>(h.sum) / static_cast<double>(h.count);
    out << "[obs] " << name << ": count=" << h.count << " sum=" << h.sum
        << " mean=" << json::number(mean) << " p50=" << h.quantile(0.50)
        << " p90=" << h.quantile(0.90) << " p99=" << h.quantile(0.99)
        << " p999=" << h.quantile(0.999) << "\n";
  }
  return out.str();
}

void reset() {
  {
    TraceBuffer& buffer = trace_buffer();
    std::lock_guard lock(buffer.mutex);
    buffer.events.clear();
    buffer.dropped = 0;
  }
  Registry::global().reset_values();
}

}  // namespace varpred::obs
