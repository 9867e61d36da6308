// Tests for varpred::obs: span nesting (including across pool workers),
// HDR histogram slot boundaries, counter wrap-around, the JSON sinks (parsed
// back with the in-repo parser), and the off-mode no-op guarantee.
//
// gtest_discover_tests runs every TEST in its own process, so set_mode()
// calls here cannot leak into other tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/hdr.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/run_document.hpp"

namespace varpred {
namespace {

TEST(ObsMode, ParsesKnownNamesAndRejectsOthers) {
  obs::Mode mode = obs::Mode::kOff;
  EXPECT_TRUE(obs::parse_mode("summary", mode));
  EXPECT_EQ(mode, obs::Mode::kSummary);
  EXPECT_TRUE(obs::parse_mode("trace", mode));
  EXPECT_EQ(mode, obs::Mode::kTrace);
  EXPECT_TRUE(obs::parse_mode("off", mode));
  EXPECT_EQ(mode, obs::Mode::kOff);

  mode = obs::Mode::kTrace;
  EXPECT_FALSE(obs::parse_mode("verbose", mode));
  EXPECT_FALSE(obs::parse_mode("", mode));
  EXPECT_FALSE(obs::parse_mode("Trace", mode));
  EXPECT_EQ(mode, obs::Mode::kTrace) << "failed parse must not clobber out";
}

TEST(ObsHistogram, BucketBoundaries) {
  // Registry histograms use the default 2 significant digits, k = 8: values
  // 0..255 get one slot each, [256, 511] splits into 128 slots of width 2,
  // [512, 1023] into 128 slots of width 4, and so on.
  obs::HdrHistogram& h = obs::Registry::global().hdr("test.slot_bounds");
  const obs::HdrLayout& layout = h.layout();
  ASSERT_EQ(layout.sub_bits, 8);
  EXPECT_EQ(layout.index(0), 0u);
  EXPECT_EQ(layout.index(255), 255u);
  EXPECT_EQ(layout.index(256), 256u);
  EXPECT_EQ(layout.index(257), 256u);
  EXPECT_EQ(layout.index(258), 257u);
  EXPECT_EQ(layout.index(511), 383u);
  EXPECT_EQ(layout.index(512), 384u);
  EXPECT_EQ(layout.slot_lo(506), 1000u);
  EXPECT_EQ(layout.slot_hi(506), 1003u);

  h.record(0);
  h.record(3);
  h.record(3);
  h.record(1000);
  const obs::HdrSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 1006u);
  using Slot = std::pair<std::size_t, std::uint64_t>;
  EXPECT_EQ(snap.slots,
            (std::vector<Slot>{Slot{0, 1}, Slot{3, 2}, Slot{506, 1}}));
  // The top quantile is the exact max, not the slot's upper bound.
  EXPECT_EQ(snap.quantile(1.0), 1000u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(h.snapshot().slots.empty());
}

TEST(ObsCounter, WrapsModulo64Bits) {
  obs::Counter c;
  c.add(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(c.value(), std::numeric_limits<std::uint64_t>::max());
  c.add(1);  // documented wrap, not saturation
  EXPECT_EQ(c.value(), 0u);
  c.add(41);
  EXPECT_EQ(c.value(), 41u);
}

TEST(ObsRegistry, StableReferencesAndSortedSnapshot) {
  obs::set_mode(obs::Mode::kSummary);
  obs::reset();
  auto& reg = obs::Registry::global();
  obs::Counter& a1 = reg.counter("test.alpha");
  obs::Counter& b1 = reg.counter("test.beta");
  a1.add(2);
  b1.add(5);
  // Same name returns the same object (hot paths cache the reference).
  EXPECT_EQ(&reg.counter("test.alpha"), &a1);
  reg.gauge("test.gamma").set(1.5);
  obs::HdrHistogram& d1 = reg.hdr("test.delta");
  d1.record(9);
  EXPECT_EQ(&reg.hdr("test.delta"), &d1);
  reg.hdr("test.char").record(4);

  const auto snap = reg.snapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  }
  ASSERT_GE(snap.hdr.size(), 2u);
  for (std::size_t i = 1; i < snap.hdr.size(); ++i) {
    EXPECT_LT(snap.hdr[i - 1].first, snap.hdr[i].first);
  }
  bool saw_delta = false;
  for (const auto& [name, h] : snap.hdr) {
    if (name == "test.delta") {
      saw_delta = true;
      EXPECT_EQ(h.count, 1u);
      EXPECT_EQ(h.max, 9u);
    }
  }
  EXPECT_TRUE(saw_delta);
  bool saw_alpha = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "test.alpha") {
      saw_alpha = true;
      EXPECT_EQ(value, 2u);
    }
  }
  EXPECT_TRUE(saw_alpha);

  // reset zeroes values but keeps the references usable.
  obs::reset();
  EXPECT_EQ(a1.value(), 0u);
  EXPECT_EQ(d1.count(), 0u);
  a1.add(7);
  EXPECT_EQ(reg.counter("test.alpha").value(), 7u);
  d1.record(2);
  EXPECT_EQ(reg.hdr("test.delta").count(), 1u);
}

TEST(ObsSpan, NestsWithinAThread) {
  obs::set_mode(obs::Mode::kTrace);
  obs::reset();
  EXPECT_EQ(obs::Span::current_depth(), 0u);
  {
    obs::Span outer("test.outer");
    EXPECT_EQ(outer.depth(), 0u);
    EXPECT_EQ(obs::Span::current_depth(), 1u);
    {
      obs::Span inner("test.inner");
      EXPECT_EQ(inner.depth(), 1u);
      EXPECT_EQ(obs::Span::current_depth(), 2u);
    }
    EXPECT_EQ(obs::Span::current_depth(), 1u);
  }
  EXPECT_EQ(obs::Span::current_depth(), 0u);

  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), 2u);
  // Spans complete inner-first.
  EXPECT_EQ(events[0].name, "test.inner");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].name, "test.outer");
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_EQ(events[0].tid, events[1].tid);
  // The inner span is contained in the outer one on the monotonic clock.
  EXPECT_GE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[0].start_ns + events[0].dur_ns,
            events[1].start_ns + events[1].dur_ns);
}

TEST(ObsSpan, NestsAcrossParallelForWorkers) {
  obs::set_mode(obs::Mode::kTrace);
  obs::reset();
  constexpr std::size_t kIters = 64;
  std::atomic<std::uint32_t> max_depth{0};
  {
    obs::Span outer("test.parallel", obs::Span::kPoolStats);
    parallel_for(kIters, [&](std::size_t) {
      obs::Span body("test.body");
      // Depth is tracked per thread: a pool worker starts at depth 0, the
      // submitting thread (which also drains chunks) nests under "outer".
      const std::uint32_t d = obs::Span::current_depth();
      EXPECT_GE(d, 1u);
      std::uint32_t seen = max_depth.load();
      while (d > seen && !max_depth.compare_exchange_weak(seen, d)) {
      }
    });
  }
  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), kIters + 1);
  std::size_t body_count = 0;
  std::vector<std::uint32_t> tids;
  for (const auto& e : events) {
    if (e.name == "test.body") {
      ++body_count;
      tids.push_back(e.tid);
    }
  }
  EXPECT_EQ(body_count, kIters);
  // Every per-iteration span sits inside the outer span's wall-clock window.
  const auto& outer_event = events.back();
  EXPECT_EQ(outer_event.name, "test.parallel");
  for (const auto& e : events) {
    EXPECT_GE(e.start_ns, outer_event.start_ns);
    EXPECT_LE(e.start_ns + e.dur_ns,
              outer_event.start_ns + outer_event.dur_ns);
  }
  // The outer span carries the pool-delta args.
  bool saw_iters = false;
  for (const auto& [key, value] : outer_event.args) {
    if (key == "pool.iterations") {
      saw_iters = true;
      EXPECT_EQ(value, static_cast<double>(kIters));
    }
  }
  EXPECT_TRUE(saw_iters);
  // The span histogram recorded every span too.
  EXPECT_EQ(obs::Registry::global().hdr("span.test.body").count(), kIters);
}

TEST(ObsSinks, TraceJsonRoundTrips) {
  obs::set_mode(obs::Mode::kTrace);
  obs::reset();
  {
    obs::Span outer("test.sink_outer");
    obs::Span inner("test.sink_inner");
  }
  const std::string text = obs::trace_json();
  const auto doc = obs::json::parse(text);
  ASSERT_TRUE(doc.is_object());
  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  for (const auto& e : events->array) {
    ASSERT_TRUE(e.is_object());
    EXPECT_EQ(e.find("ph")->str, "X");
    EXPECT_EQ(e.find("cat")->str, "varpred");
    EXPECT_TRUE(e.find("ts")->is_number());
    EXPECT_TRUE(e.find("dur")->is_number());
    EXPECT_TRUE(e.find("tid")->is_number());
  }
  EXPECT_EQ(events->array[0].find("name")->str, "test.sink_inner");
  EXPECT_EQ(events->array[1].find("name")->str, "test.sink_outer");
}

TEST(ObsSinks, MetricsJsonRoundTrips) {
  obs::set_mode(obs::Mode::kSummary);
  obs::reset();
  obs::Registry::global().counter("test.metric_count").add(42);
  obs::Registry::global().gauge("test.metric_gauge").set(2.25);
  for (const std::uint64_t v : {5u, 6u}) {
    VARPRED_OBS_HIST("test.metric_hist", v);
  }

  // VARPRED_OBS_HIST lands in the registry's HDR family.
  bool in_snapshot = false;
  for (const auto& [name, h] : obs::Registry::global().snapshot().hdr) {
    if (name == "test.metric_hist") in_snapshot = h.count == 2;
  }
  EXPECT_TRUE(in_snapshot);

  const auto doc = obs::json::parse(obs::metrics_json());
  ASSERT_TRUE(doc.is_object());
  const auto* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  const auto* count = counters->find("test.metric_count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->num, 42.0);
  const auto* gauge = doc.find("gauges")->find("test.metric_gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->num, 2.25);
  EXPECT_EQ(doc.find("histograms"), nullptr) << "one histogram family";
  const auto* hist = doc.find("hdr")->find("test.metric_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->num, 2.0);
  EXPECT_EQ(hist->find("sum")->num, 11.0);
  EXPECT_EQ(hist->find("min")->num, 5.0);
  EXPECT_EQ(hist->find("max")->num, 6.0);
  // Small values are stored exactly: the quantiles are the samples.
  EXPECT_EQ(hist->find("p50")->num, 5.0);
  EXPECT_EQ(hist->find("p99")->num, 6.0);
}

TEST(ObsSinks, SummaryTextPrintsOneLinePerHistogram) {
  obs::set_mode(obs::Mode::kSummary);
  obs::reset();
  obs::Registry::global().counter("test.summary_count").add(3);
  for (const std::uint64_t v : {10u, 20u, 30u}) {
    VARPRED_OBS_HIST("test.summary_hist", v);
  }
  const std::string text = obs::summary_text();
  EXPECT_NE(text.find("[obs] test.summary_count = 3\n"), std::string::npos)
      << text;
  // Count, sum and mean sit beside the tails on the histogram's one line.
  EXPECT_NE(text.find("[obs] test.summary_hist: count=3 sum=60 mean=20 "
                      "p50=20 p90=30 p99=30 p999=30\n"),
            std::string::npos)
      << text;
}

TEST(ObsOffMode, EmitsNothingAndCountsNothing) {
  obs::set_mode(obs::Mode::kOff);
  obs::reset();
  {
    obs::Span span("test.off_span", obs::Span::kPoolStats);
    EXPECT_FALSE(span.active());
    VARPRED_OBS_COUNT("test.off_counter", 3);
    VARPRED_OBS_HIST("test.off_hist", 9);
  }
  EXPECT_TRUE(obs::trace_events().empty());
  EXPECT_EQ(obs::summary_text(), "");
  const auto snap = obs::Registry::global().snapshot();
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(value, 0u) << name;
  }
  for (const auto& [name, h] : snap.hdr) {
    EXPECT_EQ(h.count, 0u) << name;
  }
}

TEST(ObsOffMode, ModeSwitchMidSpanKeepsDepthBalanced) {
  // A span opened while on and closed after the mode went off unwinds the
  // depth counter but records nothing; a span opened while off stays
  // inactive even if the mode comes on before it closes.
  obs::set_mode(obs::Mode::kSummary);
  obs::reset();
  {
    obs::Span on("test.switched_off");
    EXPECT_TRUE(on.active());
    EXPECT_EQ(obs::Span::current_depth(), 1u);
    obs::set_mode(obs::Mode::kOff);
  }
  EXPECT_EQ(obs::Span::current_depth(), 0u);
  {
    obs::Span off("test.switched_on");
    EXPECT_FALSE(off.active());
    EXPECT_EQ(obs::Span::current_depth(), 0u);
    obs::set_mode(obs::Mode::kSummary);
  }
  EXPECT_EQ(obs::Span::current_depth(), 0u);
  for (const auto& [name, h] : obs::Registry::global().snapshot().hdr) {
    EXPECT_EQ(h.count, 0u) << name;
  }
  obs::set_mode(obs::Mode::kOff);
}

TEST(ObsJson, ParserHandlesEscapesAndRejectsGarbage) {
  const auto doc = obs::json::parse(
      "{\"a\\u0041\":[1,2.5,-3e2,true,false,null,\"x\\n\\\"y\"]}");
  ASSERT_TRUE(doc.is_object());
  const auto* arr = doc.find("aA");
  ASSERT_NE(arr, nullptr);
  ASSERT_TRUE(arr->is_array());
  ASSERT_EQ(arr->array.size(), 7u);
  EXPECT_EQ(arr->array[0].num, 1.0);
  EXPECT_EQ(arr->array[1].num, 2.5);
  EXPECT_EQ(arr->array[2].num, -300.0);
  EXPECT_TRUE(arr->array[3].boolean);
  EXPECT_FALSE(arr->array[4].boolean);
  EXPECT_TRUE(arr->array[5].is_null());
  EXPECT_EQ(arr->array[6].str, "x\n\"y");

  EXPECT_THROW(obs::json::parse(""), std::invalid_argument);
  EXPECT_THROW(obs::json::parse("{"), std::invalid_argument);
  EXPECT_THROW(obs::json::parse("{} trailing"), std::invalid_argument);
  EXPECT_THROW(obs::json::parse("{\"k\":}"), std::invalid_argument);
  EXPECT_THROW(obs::json::parse("[1,]"), std::invalid_argument);
}

TEST(ObsJson, FactoryHelpersSetExactlyOneType) {
  const auto s = obs::json::make_string("steal \"clock\"");
  const auto t = obs::json::make_bool(true);
  const auto f = obs::json::make_bool(false);
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(s.str, "steal \"clock\"");
  EXPECT_TRUE(t.is_bool());
  EXPECT_TRUE(t.boolean);
  EXPECT_TRUE(f.is_bool());
  EXPECT_FALSE(f.boolean);
  for (const auto* v : {&s, &t}) {
    const int kinds = v->is_null() + v->is_bool() + v->is_number() +
                      v->is_string() + v->is_array() + v->is_object();
    EXPECT_EQ(kinds, 1);
  }
  EXPECT_EQ(obs::json::dump(t), "true");
  EXPECT_EQ(obs::json::dump(f), "false");
  EXPECT_EQ(obs::json::parse(obs::json::dump(s)).str, s.str);
}

TEST(ObsJson, NumberFormattingRoundTrips) {
  EXPECT_EQ(obs::json::number(0.0), "0");
  EXPECT_EQ(obs::json::number(42.0), "42");
  EXPECT_EQ(obs::json::number(-7.0), "-7");
  // Non-integral values parse back to the same double.
  for (const double v : {0.1, 1.0 / 3.0, 1e-9, 123456.789, 2.5e17}) {
    const auto doc = obs::json::parse(obs::json::number(v));
    EXPECT_EQ(doc.num, v) << obs::json::number(v);
  }
}

// ---------------------------------------------------------------------------
// dump()/parse() round-trip property tests (the ledgers and bench_diff
// reports ride on these).

bool values_equal(const obs::json::Value& a, const obs::json::Value& b) {
  using Type = obs::json::Value::Type;
  if (a.type != b.type) return false;
  switch (a.type) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return a.boolean == b.boolean;
    case Type::kNumber:
      return a.num == b.num;  // exact: number() must round-trip
    case Type::kString:
      return a.str == b.str;
    case Type::kArray:
      if (a.array.size() != b.array.size()) return false;
      for (std::size_t i = 0; i < a.array.size(); ++i) {
        if (!values_equal(a.array[i], b.array[i])) return false;
      }
      return true;
    case Type::kObject:
      if (a.object.size() != b.object.size()) return false;
      for (std::size_t i = 0; i < a.object.size(); ++i) {
        if (a.object[i].first != b.object[i].first) return false;
        if (!values_equal(a.object[i].second, b.object[i].second)) {
          return false;
        }
      }
      return true;
  }
  return false;
}

obs::json::Value random_value(Rng& rng, std::size_t depth) {
  using Type = obs::json::Value::Type;
  obs::json::Value v;
  // Shallow levels prefer containers; leaves at depth 3.
  const std::uint64_t kind =
      depth >= 3 ? rng.uniform_index(4) : rng.uniform_index(6);
  switch (kind) {
    case 0:
      v.type = Type::kNull;
      break;
    case 1:
      v.type = Type::kBool;
      v.boolean = rng.uniform_index(2) == 1;
      break;
    case 2: {
      v.type = Type::kNumber;
      // Mix of scales incl. values needing the full %.17g fallback.
      const double scale[] = {1.0, 1e-12, 1e15, 0.1};
      v.num = rng.uniform(-1.0, 1.0) * scale[rng.uniform_index(4)] +
              1.0 / 3.0;
      break;
    }
    case 3: {
      v.type = Type::kString;
      const std::size_t len = rng.uniform_index(12);
      for (std::size_t i = 0; i < len; ++i) {
        // Whole byte range below 0x80 plus a UTF-8 pair: exercises every
        // escape class (quotes, backslash, control chars) and passthrough.
        const std::uint64_t c = rng.uniform_index(130);
        if (c < 128) {
          v.str += static_cast<char>(c);
        } else {
          v.str += "\xC3\xA9";  // é
        }
      }
      break;
    }
    case 4: {
      v.type = Type::kArray;
      const std::size_t n = rng.uniform_index(4);
      for (std::size_t i = 0; i < n; ++i) {
        v.array.push_back(random_value(rng, depth + 1));
      }
      break;
    }
    default: {
      v.type = Type::kObject;
      const std::size_t n = rng.uniform_index(4);
      for (std::size_t i = 0; i < n; ++i) {
        std::string key = "k";
        key += std::to_string(i);
        v.object.emplace_back(std::move(key), random_value(rng, depth + 1));
      }
      break;
    }
  }
  return v;
}

TEST(ObsJson, DumpParseRoundTripsRandomDocuments) {
  Rng rng(20260805);
  for (int trial = 0; trial < 200; ++trial) {
    const obs::json::Value original = random_value(rng, 0);
    const std::string text = obs::json::dump(original);
    const obs::json::Value reparsed = obs::json::parse(text);
    ASSERT_TRUE(values_equal(original, reparsed)) << text;
  }
}

TEST(ObsJson, EscapeRoundTripsEveryByteClass) {
  std::string hostile;
  for (int c = 1; c < 0x20; ++c) hostile += static_cast<char>(c);
  hostile += "\"\\/ plain text é 日本語";
  obs::json::Value v;
  v.type = obs::json::Value::Type::kString;
  v.str = hostile;
  const obs::json::Value reparsed = obs::json::parse(obs::json::dump(v));
  EXPECT_EQ(reparsed.str, hostile);
}

TEST(ObsJson, PreciseDoublesRoundTripExactly) {
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    // Doubles whose shortest decimal form needs the full 17 digits.
    const double v = rng.uniform(0.0, 1.0) * std::pow(10.0,
        static_cast<double>(rng.uniform_index(40)) - 20.0);
    const obs::json::Value parsed = obs::json::parse(obs::json::number(v));
    ASSERT_EQ(parsed.num, v);
  }
}

TEST(ObsJson, DeepNestingGuardRejectsStackAbuse) {
  // Within the guard: parses fine.
  std::string ok;
  for (int i = 0; i < 200; ++i) ok += '[';
  ok += '1';
  for (int i = 0; i < 200; ++i) ok += ']';
  EXPECT_NO_THROW(obs::json::parse(ok));

  // Past kMaxDepth: clean error, not a stack overflow.
  std::string deep;
  for (int i = 0; i < 5000; ++i) deep += '[';
  deep += '1';
  for (int i = 0; i < 5000; ++i) deep += ']';
  EXPECT_THROW(obs::json::parse(deep), std::invalid_argument);

  std::string deep_obj;
  for (int i = 0; i < 5000; ++i) deep_obj += "{\"k\":";
  deep_obj += "1";
  for (int i = 0; i < 5000; ++i) deep_obj += '}';
  EXPECT_THROW(obs::json::parse(deep_obj), std::invalid_argument);
}

TEST(ObsEnv, HostnameAndTimestampAreWellFormed) {
  EXPECT_FALSE(obs::hostname().empty());
  const std::string ts = obs::iso8601_utc_now();
  ASSERT_EQ(ts.size(), 20u) << ts;
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[7], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts[13], ':');
  EXPECT_EQ(ts[16], ':');
  EXPECT_EQ(ts[19], 'Z');
}

// ---------------------------------------------------------------------------
// HDR histogram (obs/hdr.hpp)

TEST(ObsHdr, SubBitsMatchSignificantDigits) {
  // k = ceil(log2(2 * 10^sd)).
  EXPECT_EQ(obs::hdr_sub_bits(1), 5);
  EXPECT_EQ(obs::hdr_sub_bits(2), 8);
  EXPECT_EQ(obs::hdr_sub_bits(3), 11);
  EXPECT_EQ(obs::hdr_sub_bits(4), 15);
  EXPECT_EQ(obs::hdr_sub_bits(5), 18);
  // Out-of-range digits clamp instead of exploding the slot table.
  EXPECT_EQ(obs::hdr_sub_bits(0), obs::hdr_sub_bits(1));
  EXPECT_EQ(obs::hdr_sub_bits(-3), obs::hdr_sub_bits(1));
  EXPECT_EQ(obs::hdr_sub_bits(9), obs::hdr_sub_bits(5));
  // sd=2 -> 1/128 relative error, the documented default.
  EXPECT_DOUBLE_EQ(obs::HdrLayout{8}.max_relative_error(), 1.0 / 128.0);
}

TEST(ObsHdr, LayoutIndexAndSlotBoundsRoundTrip) {
  for (const int sub_bits : {5, 8, 11}) {
    const obs::HdrLayout layout{sub_bits};
    const std::uint64_t exact = std::uint64_t{1} << sub_bits;

    // Values below 2^k are stored exactly, one slot per value.
    EXPECT_EQ(layout.index(0), 0u);
    EXPECT_EQ(layout.index(1), 1u);
    EXPECT_EQ(layout.index(exact - 1),
              static_cast<std::size_t>(exact - 1));
    EXPECT_EQ(layout.slot_lo(static_cast<std::size_t>(exact - 1)),
              exact - 1);
    EXPECT_EQ(layout.slot_hi(static_cast<std::size_t>(exact - 1)),
              exact - 1);

    // Every slot inverts: lo and hi both map back to the slot, slots tile
    // the u64 range with no gaps, and the error bound holds per slot.
    const double rel = layout.max_relative_error();
    for (std::size_t i = 0; i < layout.slot_count(); ++i) {
      const std::uint64_t lo = layout.slot_lo(i);
      const std::uint64_t hi = layout.slot_hi(i);
      ASSERT_LE(lo, hi) << "slot " << i;
      ASSERT_EQ(layout.index(lo), i) << "slot " << i;
      ASSERT_EQ(layout.index(hi), i) << "slot " << i;
      if (i + 1 < layout.slot_count()) {
        ASSERT_EQ(layout.slot_lo(i + 1), hi + 1) << "slot " << i;
      }
      if (lo > 0) {
        ASSERT_LE(static_cast<double>(hi - lo), rel * static_cast<double>(lo))
            << "slot " << i;
      }
    }
    // The top slot clamps at UINT64_MAX.
    EXPECT_EQ(layout.slot_hi(layout.slot_count() - 1), ~std::uint64_t{0});
    EXPECT_EQ(layout.index(~std::uint64_t{0}), layout.slot_count() - 1);
  }
}

TEST(ObsHdr, RecordSnapshotAndExactSmallQuantiles) {
  obs::HdrHistogram h(2);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.snapshot().quantile(0.5), 0u);  // empty -> 0

  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  const obs::HdrSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 100u);
  // Values below 2^8 are exact, so quantiles are the exact order stats.
  EXPECT_EQ(snap.quantile(0.0), 1u);
  EXPECT_EQ(snap.quantile(0.5), 50u);
  EXPECT_EQ(snap.quantile(0.9), 90u);
  EXPECT_EQ(snap.quantile(1.0), 100u);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.snapshot().slots.size(), 0u);
}

/// Records `values` and checks quantile(q) against the exact sorted-sample
/// order statistic at every probed q: the HDR answer must sit at or above
/// the exact one, within the layout's relative-error bound.
void check_hdr_against_exact(std::vector<std::uint64_t> values,
                             int significant_digits) {
  obs::HdrHistogram h(significant_digits);
  for (const std::uint64_t v : values) h.record(v);
  std::sort(values.begin(), values.end());
  const obs::HdrSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, values.size());
  const double rel = snap.layout.max_relative_error();
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999,
                         0.9999, 1.0}) {
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(values.size())));
    rank = std::clamp<std::uint64_t>(rank, 1, values.size());
    const std::uint64_t exact = values[rank - 1];
    const std::uint64_t hdr = snap.quantile(q);
    ASSERT_GE(hdr, exact) << "q=" << q;
    ASSERT_LE(static_cast<double>(hdr - exact),
              rel * static_cast<double>(exact))
        << "q=" << q << " exact=" << exact << " hdr=" << hdr;
  }
}

TEST(ObsHdr, RecordNEqualsRepeatedRecord) {
  obs::HdrHistogram bulk(2);
  obs::HdrHistogram single(2);
  const std::pair<std::uint64_t, std::uint64_t> batches[] = {
      {7, 3}, {1000, 5}, {123456, 2}, {3, 1}};
  for (const auto& [value, n] : batches) {
    bulk.record_n(value, n);
    for (std::uint64_t i = 0; i < n; ++i) single.record(value);
  }
  bulk.record_n(1, 0);  // an empty batch records nothing, not even a min
  const obs::HdrSnapshot a = bulk.snapshot();
  const obs::HdrSnapshot b = single.snapshot();
  EXPECT_EQ(a.count, 11u);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, 3u);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.slots, b.slots);
}

TEST(ObsHdr, QuantilesMatchExactOnUniformMillionSamples) {
  Rng rng(0xD15Cu);
  std::vector<std::uint64_t> values(1'000'000);
  for (auto& v : values) v = rng.uniform_index(10'000'000);
  check_hdr_against_exact(std::move(values), 2);
}

TEST(ObsHdr, QuantilesMatchExactOnLognormalMillionSamples) {
  Rng rng(0x10C4Lu);
  std::vector<std::uint64_t> values(1'000'000);
  for (std::size_t i = 0; i < values.size(); i += 2) {
    // Box-Muller on the repo Rng keeps the fixture deterministic.
    const double u1 = std::max(rng.uniform(), 1e-12);
    const double u2 = rng.uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double z0 = r * std::cos(2.0 * M_PI * u2);
    const double z1 = r * std::sin(2.0 * M_PI * u2);
    values[i] = static_cast<std::uint64_t>(std::exp(10.0 + 1.5 * z0));
    if (i + 1 < values.size()) {
      values[i + 1] = static_cast<std::uint64_t>(std::exp(10.0 + 1.5 * z1));
    }
  }
  check_hdr_against_exact(std::move(values), 2);
}

TEST(ObsHdr, QuantilesMatchExactOnBimodalMillionSamples) {
  // Fast path vs. contended path: the shape log2 buckets get wrong.
  Rng rng(0xB1D0Du);
  std::vector<std::uint64_t> values(1'000'000);
  for (auto& v : values) {
    v = rng.uniform() < 0.7 ? 10'000 + rng.uniform_index(2'000)
                            : 8'000'000 + rng.uniform_index(1'000'000);
  }
  check_hdr_against_exact(std::move(values), 3);
}

TEST(ObsHdr, ConcurrentRecordsMergeToSerialEquivalent) {
  // 4 threads record disjoint deterministic streams into two histograms;
  // merging their snapshots must equal one serial histogram over the union.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 200'000;
  obs::HdrHistogram parts[2]{obs::HdrHistogram(2), obs::HdrHistogram(2)};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &parts] {
      Rng rng(0xC0DE + t);
      obs::HdrHistogram& h = parts[t % 2];
      for (std::size_t i = 0; i < kPerThread; ++i) {
        h.record(rng.uniform_index(50'000'000));
      }
    });
  }
  for (auto& th : threads) th.join();

  obs::HdrHistogram serial(2);
  for (std::size_t t = 0; t < kThreads; ++t) {
    Rng rng(0xC0DE + t);
    for (std::size_t i = 0; i < kPerThread; ++i) {
      serial.record(rng.uniform_index(50'000'000));
    }
  }

  obs::HdrSnapshot merged = parts[0].snapshot();
  merged.merge(parts[1].snapshot());
  const obs::HdrSnapshot expected = serial.snapshot();
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.sum, expected.sum);
  EXPECT_EQ(merged.min, expected.min);
  EXPECT_EQ(merged.max, expected.max);
  ASSERT_EQ(merged.slots.size(), expected.slots.size());
  for (std::size_t i = 0; i < merged.slots.size(); ++i) {
    EXPECT_EQ(merged.slots[i], expected.slots[i]) << "slot entry " << i;
  }
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(merged.quantile(q), expected.quantile(q)) << "q=" << q;
  }
}

TEST(ObsHdr, MergeRejectsMismatchedLayouts) {
  obs::HdrHistogram a(1);
  obs::HdrHistogram b(3);
  a.record(10);
  b.record(10);
  obs::HdrSnapshot sa = a.snapshot();
  EXPECT_THROW(sa.merge(b.snapshot()), std::invalid_argument);
}

TEST(ObsHdr, RegistryKeepsStableReferencesAndSnapshotsHdr) {
  obs::set_mode(obs::Mode::kSummary);
  obs::reset();
  auto& reg = obs::Registry::global();
  obs::HdrHistogram& h = reg.hdr("test.hdr.latency");
  EXPECT_EQ(&reg.hdr("test.hdr.latency"), &h);
  h.record(1000);
  h.record(2000);
  const auto snap = reg.snapshot();
  bool found = false;
  for (const auto& [name, hs] : snap.hdr) {
    if (name == "test.hdr.latency") {
      found = true;
      EXPECT_EQ(hs.count, 2u);
    }
  }
  EXPECT_TRUE(found);
  // Spans record into the HDR family under summary mode.
  { obs::Span span("test.hdr.span"); }
  bool span_hdr = false;
  for (const auto& [name, hs] : reg.snapshot().hdr) {
    if (name == "span.test.hdr.span") span_hdr = hs.count == 1;
  }
  EXPECT_TRUE(span_hdr);
  // The metrics JSON sink carries the hdr section with quantile fields.
  const auto doc = obs::json::parse(obs::metrics_json());
  const auto* hdr = doc.find("hdr");
  ASSERT_NE(hdr, nullptr);
  const auto* entry = hdr->find("test.hdr.latency");
  ASSERT_NE(entry, nullptr);
  EXPECT_NE(entry->find("p50"), nullptr);
  EXPECT_NE(entry->find("p999"), nullptr);
  EXPECT_NE(entry->find("max_relative_error"), nullptr);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition (the server's stats message)

TEST(ObsSinks, PrometheusTextCoversEveryMetricKind) {
  obs::set_mode(obs::Mode::kSummary);
  obs::reset();
  auto& reg = obs::Registry::global();
  reg.counter("exp.events").add(3);
  reg.gauge("exp.load").set(1.5);
  for (std::uint64_t v = 1; v <= 1000; ++v) reg.hdr("exp.hdr").record(v);
  { obs::Span span("exp.span"); }

  const std::string text = obs::prometheus_text(reg.snapshot());
  EXPECT_NE(text.find("# TYPE varpred_exp_events counter\n"
                      "varpred_exp_events 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE varpred_exp_load gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE varpred_exp_hdr summary"), std::string::npos);
  // p99 of 1..1000 under sd=2: the exact order stat is 990; the HDR answer
  // is its slot's inclusive upper bound 991 (within the 1/128 error bound).
  EXPECT_NE(text.find("varpred_exp_hdr{quantile=\"0.99\"} 991"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("varpred_exp_hdr_sum 500500"), std::string::npos);
  EXPECT_NE(text.find("varpred_exp_hdr_count 1000"), std::string::npos);
  // Spans export as summaries of their one histogram.
  EXPECT_NE(text.find("# TYPE varpred_span_exp_span summary"),
            std::string::npos);
  EXPECT_NE(text.find("varpred_span_exp_span_count 1"), std::string::npos);
  EXPECT_EQ(text.find(" histogram\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("_bucket{"), std::string::npos) << text;
}

TEST(ObsSinks, PrometheusNamesMapOtherCharactersToUnderscore) {
  // Only [a-zA-Z0-9_:] survive; the prefix keeps a digit-first name valid.
  obs::MetricsSnapshot snap;
  snap.counters.emplace_back("a-b/c", 1);
  snap.gauges.emplace_back("9lives:x.y", 2.0);
  const std::string text = obs::prometheus_text(snap);
  EXPECT_NE(text.find("# TYPE varpred_a_b_c counter\nvarpred_a_b_c 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("# TYPE varpred_9lives:x_y gauge\nvarpred_9lives:x_y 2\n"),
      std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// Pre-v5 fixtures read only as ledger lines: one stage shape, a numeric
// "samples" array.

TEST(ObsTelemetry, RejectsV1FixtureWithoutSamples) {
  // A v1 stage is {"name", "seconds"}: a point, not a sample vector.
  EXPECT_THROW(obs::parse_ledger_line(obs::json::parse_file(
                   std::string(VARPRED_TEST_DATA_DIR) + "/telemetry_v1.json")),
               std::invalid_argument);
}

TEST(ObsTelemetry, LoadsV2FixtureWithoutQuantiles) {
  const auto t = obs::parse_ledger_line(obs::json::parse_file(
      std::string(VARPRED_TEST_DATA_DIR) + "/telemetry_v2.json"));
  EXPECT_EQ(t.schema_version, 2);
  EXPECT_EQ(t.provenance.bench, "fixture_v2");
  EXPECT_EQ(t.provenance.repeat, 4u);
  ASSERT_EQ(t.stages.size(), 2u);
  EXPECT_EQ(t.stages[0].samples, (std::vector<double>{0.1, 0.11, 0.1, 0.1}));
  EXPECT_EQ(t.stages[1].samples,
            (std::vector<double>{0.2, 0.21, 0.2, 0.21}));
}

TEST(ObsTelemetry, LoadsV3FixtureWithQuantiles) {
  // The per-stage p50..p999 the harness writes are not part of what the
  // reader returns: the samples are the distribution.
  const auto t = obs::parse_ledger_line(obs::json::parse_file(
      std::string(VARPRED_TEST_DATA_DIR) + "/telemetry_v3.json"));
  EXPECT_EQ(t.schema_version, 3);
  EXPECT_EQ(t.provenance.bench, "fixture_v3");
  ASSERT_EQ(t.stages.size(), 2u);
  EXPECT_EQ(t.stages[0].name, "corpus");
  EXPECT_EQ(t.stages[0].samples, (std::vector<double>{0.1, 0.11, 0.1, 0.1}));
  EXPECT_EQ(t.stages[1].name, "predict");
  EXPECT_EQ(t.stages[1].samples,
            (std::vector<double>{0.2, 0.21, 0.2, 0.21}));
}

TEST(EnumNames, OutOfRangeModeThrows) {
  EXPECT_THROW(obs::to_string(static_cast<obs::Mode>(99)),
               std::invalid_argument);
}

}  // namespace
}  // namespace varpred
