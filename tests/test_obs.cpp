// Tests for varpred::obs: span nesting (including across pool workers),
// histogram bucket boundaries, counter wrap-around, the JSON sinks (parsed
// back with the in-repo parser), and the off-mode no-op guarantee.
//
// gtest_discover_tests runs every TEST in its own process, so set_mode()
// calls here cannot leak into other tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/expose.hpp"
#include "obs/hdr.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"

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
  // Bucket b holds values of bit width b: 0 -> 0, 1 -> 1, [2,3] -> 2, ...
  EXPECT_EQ(obs::Histogram::bucket_index(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_index(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_index(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_index(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_index(7), 3u);
  EXPECT_EQ(obs::Histogram::bucket_index(8), 4u);
  EXPECT_EQ(obs::Histogram::bucket_index((1ull << 62) - 1), 62u);
  EXPECT_EQ(obs::Histogram::bucket_index(1ull << 62), 63u);
  EXPECT_EQ(obs::Histogram::bucket_index((1ull << 63) - 1), 63u);
  // Bit width 64 would index bucket 64; these clamp into the last bucket.
  EXPECT_EQ(obs::Histogram::bucket_index(1ull << 63), 63u);
  EXPECT_EQ(obs::Histogram::bucket_index(~std::uint64_t{0}), 63u);
  EXPECT_EQ(obs::Histogram::bucket_lo(63), 1ull << 62);
  EXPECT_EQ(obs::Histogram::bucket_hi(63), ~std::uint64_t{0});

  // lo/hi invert bucket_index at the edges of every bucket.
  for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b) {
    EXPECT_EQ(obs::Histogram::bucket_index(obs::Histogram::bucket_lo(b)), b);
    EXPECT_EQ(obs::Histogram::bucket_index(obs::Histogram::bucket_hi(b)), b);
  }

  obs::Histogram h;
  h.record(0);
  h.record(3);
  h.record(3);
  h.record(1000);  // bit width 10
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(10), 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(2), 0u);
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
  reg.histogram("test.delta").record(9);

  const auto snap = reg.snapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  }
  bool saw_alpha = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "test.alpha") {
      saw_alpha = true;
      EXPECT_EQ(value, 2u);
    }
  }
  EXPECT_TRUE(saw_alpha);

  // reset zeroes values but keeps the reference usable.
  obs::reset();
  EXPECT_EQ(a1.value(), 0u);
  a1.add(7);
  EXPECT_EQ(reg.counter("test.alpha").value(), 7u);
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
  // The summary histogram recorded every span too.
  const auto& hist = obs::Registry::global().histogram("span.test.body");
  EXPECT_EQ(hist.count(), kIters);
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
  obs::Registry::global().histogram("test.metric_hist").record(5);
  obs::Registry::global().histogram("test.metric_hist").record(6);

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
  const auto* hist = doc.find("histograms")->find("test.metric_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->num, 2.0);
  EXPECT_EQ(hist->find("sum")->num, 11.0);
  const auto* buckets = hist->find("buckets");
  ASSERT_TRUE(buckets->is_array());
  ASSERT_EQ(buckets->array.size(), 1u);  // 5 and 6 share bucket [4, 7]
  EXPECT_EQ(buckets->array[0].find("lo")->num, 4.0);
  EXPECT_EQ(buckets->array[0].find("hi")->num, 7.0);
  EXPECT_EQ(buckets->array[0].find("count")->num, 2.0);
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
  for (const auto& h : snap.histograms) {
    EXPECT_EQ(h.count, 0u) << h.name;
  }
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
  // Spans feed both histogram families under summary mode.
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
// Sampling profiler (obs/profiler.hpp)

TEST(ObsProfiler, CollapsedTextFormat) {
  obs::ProfileReport report;
  report.samples = 5;
  report.idle_samples = 2;
  report.stacks["outer"] = 2;
  report.stacks["outer;inner"] = 3;
  EXPECT_EQ(report.collapsed_text(), "outer 2\nouter;inner 3\n");
  EXPECT_EQ(report.collapsed_text(true),
            "outer 2\nouter;inner 3\n(idle) 2\n");
}

TEST(ObsProfiler, ProfilingBitIsIndependentOfTheMetricsMode) {
  // The profiling bit shares a state cell with the mode bits; flipping one
  // must never change the other.
  for (const obs::Mode mode : {obs::Mode::kOff, obs::Mode::kSummary}) {
    obs::set_mode(mode);
    EXPECT_FALSE(obs::profiling_active());
    ASSERT_TRUE(obs::profiler_start(50.0));
    EXPECT_TRUE(obs::profiling_active());
    EXPECT_EQ(obs::mode(), mode);
    obs::profiler_stop();
    EXPECT_FALSE(obs::profiling_active());
    EXPECT_EQ(obs::mode(), mode);
  }
  obs::set_mode(obs::Mode::kOff);
}

TEST(ObsProfiler, AttributesSamplesToLiveSpanStacks) {
  // Profiling must work with the metrics mode off — and leave the
  // registry untouched while doing so.
  obs::set_mode(obs::Mode::kOff);
  obs::reset();
  EXPECT_FALSE(obs::profiler_running());
  ASSERT_TRUE(obs::profiler_start(500.0));
  EXPECT_TRUE(obs::profiler_running());
  EXPECT_FALSE(obs::profiler_start(500.0)) << "one run at a time";

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  {
    obs::Span outer("prof.outer");
    while (obs::profiler_sweep_count() < 25 &&
           std::chrono::steady_clock::now() < deadline) {
      obs::Span inner("prof.inner");
      volatile std::uint64_t sink = 0;
      for (int i = 0; i < 4000; ++i) {
        sink = sink + static_cast<std::uint64_t>(i);
      }
    }
  }
  const obs::ProfileReport report = obs::profiler_stop();
  EXPECT_FALSE(obs::profiler_running());

  EXPECT_DOUBLE_EQ(report.hz, 500.0);
  EXPECT_GT(report.duration_seconds, 0.0);
  ASSERT_GT(report.samples, 0u);
  ASSERT_FALSE(report.stacks.empty());
  // Every sample was taken with prof.outer as the root frame.
  for (const auto& [stack, n] : report.stacks) {
    EXPECT_EQ(stack.rfind("prof.outer", 0), 0u) << stack;
    EXPECT_GT(n, 0u);
  }
  // Off-mode guarantee: the frames went to the profiler, not the registry.
  const auto snap = obs::Registry::global().snapshot();
  for (const auto& h : snap.histograms) {
    EXPECT_EQ(h.name.rfind("span.prof.", 0), std::string::npos) << h.name;
  }
  for (const auto& [name, hs] : snap.hdr) {
    EXPECT_EQ(name.rfind("span.prof.", 0), std::string::npos) << name;
  }

  // A second run starts cleanly after the first.
  ASSERT_TRUE(obs::profiler_start(200.0));
  const obs::ProfileReport empty_run = obs::profiler_stop();
  EXPECT_DOUBLE_EQ(empty_run.hz, 200.0);
  EXPECT_EQ(empty_run.stacks.count("prof.outer"), 0u)
      << "reports must not leak across runs";
  // Stopping with no run active returns an empty report.
  const obs::ProfileReport idle = obs::profiler_stop();
  EXPECT_EQ(idle.samples, 0u);
  EXPECT_DOUBLE_EQ(idle.hz, 0.0);
}

// ---------------------------------------------------------------------------
// Metrics exposition (obs/expose.hpp)

TEST(ObsExpose, ParsesSpecsStrictly) {
  obs::ExposeSpec spec;
  ASSERT_TRUE(obs::parse_expose_spec("prom:/tmp/metrics.prom", spec));
  EXPECT_EQ(spec.format, obs::ExpositionFormat::kPrometheus);
  EXPECT_EQ(spec.path, "/tmp/metrics.prom");
  EXPECT_EQ(spec.period.count(), 1000);

  ASSERT_TRUE(obs::parse_expose_spec("jsonl:series.jsonl:250", spec));
  EXPECT_EQ(spec.format, obs::ExpositionFormat::kJsonl);
  EXPECT_EQ(spec.path, "series.jsonl");
  EXPECT_EQ(spec.period.count(), 250);

  // Period clamps; a non-numeric trailing segment stays part of the path.
  ASSERT_TRUE(obs::parse_expose_spec("prom:out.prom:1", spec));
  EXPECT_EQ(spec.period.count(), 10);
  ASSERT_TRUE(obs::parse_expose_spec("prom:dir:v2/out.prom", spec));
  EXPECT_EQ(spec.path, "dir:v2/out.prom");

  obs::ExposeSpec untouched;
  untouched.path = "sentinel";
  EXPECT_FALSE(obs::parse_expose_spec("csv:/tmp/x", untouched));
  EXPECT_FALSE(obs::parse_expose_spec("prom:", untouched));
  EXPECT_FALSE(obs::parse_expose_spec("", untouched));
  EXPECT_EQ(untouched.path, "sentinel") << "failed parse must not clobber";
}

TEST(ObsExpose, PrometheusTextCoversEveryMetricKind) {
  obs::set_mode(obs::Mode::kSummary);
  obs::reset();
  auto& reg = obs::Registry::global();
  reg.counter("exp.events").add(3);
  reg.gauge("exp.load").set(1.5);
  reg.histogram("exp.lat").record(10);
  reg.histogram("exp.lat").record(100);
  for (std::uint64_t v = 1; v <= 1000; ++v) reg.hdr("exp.hdr").record(v);

  const std::string text = obs::prometheus_text(reg.snapshot());
  EXPECT_NE(text.find("# TYPE varpred_exp_events counter\n"
                      "varpred_exp_events 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE varpred_exp_load gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE varpred_exp_lat histogram"),
            std::string::npos);
  EXPECT_NE(text.find("varpred_exp_lat_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("varpred_exp_lat_count 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE varpred_exp_hdr_tail summary"),
            std::string::npos);
  // p99 of 1..1000 under sd=2: the exact order stat is 990; the HDR answer
  // is its slot's inclusive upper bound 991 (within the 1/128 error bound).
  EXPECT_NE(text.find("varpred_exp_hdr_tail{quantile=\"0.99\"} 991"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("varpred_exp_hdr_tail_count 1000"), std::string::npos);
}

TEST(ObsExpose, WritesAtomicPromAndAppendsJsonl) {
  obs::set_mode(obs::Mode::kSummary);
  obs::reset();
  obs::Registry::global().counter("exp.write").add(7);
  const auto snap = obs::Registry::global().snapshot();
  const std::string dir = ::testing::TempDir();

  obs::ExposeSpec prom;
  prom.format = obs::ExpositionFormat::kPrometheus;
  prom.path = dir + "varpred_test_metrics.prom";
  ASSERT_TRUE(obs::write_exposition(snap, prom));
  ASSERT_TRUE(obs::write_exposition(snap, prom));  // replace, not append
  {
    std::ifstream in(prom.path);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("varpred_exp_write 7"), std::string::npos);
    // Exactly one copy: atomic replace, no append.
    EXPECT_EQ(buf.str().find("varpred_exp_write 7"),
              buf.str().rfind("varpred_exp_write 7"));
  }
  EXPECT_FALSE(std::ifstream(prom.path + ".tmp").good())
      << "tmp file must be renamed away";

  obs::ExposeSpec jsonl;
  jsonl.format = obs::ExpositionFormat::kJsonl;
  jsonl.path = dir + "varpred_test_series.jsonl";
  std::remove(jsonl.path.c_str());
  ASSERT_TRUE(obs::write_exposition(snap, jsonl));
  ASSERT_TRUE(obs::write_exposition(snap, jsonl));
  {
    std::ifstream in(jsonl.path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
      ++lines;
      const auto doc = obs::json::parse(line);  // every line parses alone
      ASSERT_NE(doc.find("time"), nullptr);
      ASSERT_NE(doc.find("uptime_ns"), nullptr);
      const auto* metrics = doc.find("metrics");
      ASSERT_NE(metrics, nullptr);
      EXPECT_NE(metrics->find("counters"), nullptr);
    }
    EXPECT_EQ(lines, 2u) << "jsonl appends one line per write";
  }
  // An unwritable path fails loudly instead of silently dropping data.
  obs::ExposeSpec bad;
  bad.path = dir + "no/such/dir/metrics.prom";
  EXPECT_FALSE(obs::write_exposition(snap, bad));

  std::remove(prom.path.c_str());
  std::remove(jsonl.path.c_str());
}

TEST(ObsExpose, ExporterWritesPeriodicallyAndFlushesOnStop) {
  obs::set_mode(obs::Mode::kSummary);
  obs::reset();
  obs::Registry::global().counter("exp.exporter").add(1);
  obs::ExposeSpec spec;
  spec.format = obs::ExpositionFormat::kJsonl;
  spec.path = ::testing::TempDir() + "varpred_test_exporter.jsonl";
  spec.period = std::chrono::milliseconds(10);
  std::remove(spec.path.c_str());

  EXPECT_FALSE(obs::exporter_running());
  ASSERT_TRUE(obs::exporter_start(spec));
  EXPECT_TRUE(obs::exporter_running());
  EXPECT_FALSE(obs::exporter_start(spec)) << "one exporter per process";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (obs::exporter_write_count() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  obs::exporter_stop();
  EXPECT_FALSE(obs::exporter_running());

  std::ifstream in(spec.path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NO_THROW(obs::json::parse(line));
  }
  // Start probe + >=2 periodic ticks + final flush on stop.
  EXPECT_GE(lines, 4u);
  EXPECT_EQ(lines, obs::exporter_write_count());
  // A bad path fails at start, not in the background.
  obs::ExposeSpec bad = spec;
  bad.path = ::testing::TempDir() + "no/such/dir/exporter.jsonl";
  EXPECT_FALSE(obs::exporter_start(bad));
  EXPECT_FALSE(obs::exporter_running());
  std::remove(spec.path.c_str());
}

// ---------------------------------------------------------------------------
// Telemetry compat readers (schema v1 / v2 / v3)

#ifndef VARPRED_TEST_DATA_DIR
#define VARPRED_TEST_DATA_DIR "tests/data"
#endif

TEST(ObsTelemetry, LoadsV1FixtureAsSingleSamples) {
  const auto t = obs::parse_bench_telemetry(obs::json::parse_file(
      std::string(VARPRED_TEST_DATA_DIR) + "/telemetry_v1.json"));
  EXPECT_EQ(t.schema_version, 1);
  EXPECT_EQ(t.provenance.bench, "fixture_v1");
  EXPECT_EQ(t.provenance.repeat, 1u);
  ASSERT_EQ(t.stages.size(), 2u);
  EXPECT_EQ(t.stages[0].name, "corpus");
  ASSERT_EQ(t.stages[0].samples.size(), 1u);
  EXPECT_DOUBLE_EQ(t.stages[0].samples[0], 0.5);
  EXPECT_FALSE(t.stages[0].has_quantiles);
}

TEST(ObsTelemetry, LoadsV2FixtureWithoutQuantiles) {
  const auto t = obs::parse_bench_telemetry(obs::json::parse_file(
      std::string(VARPRED_TEST_DATA_DIR) + "/telemetry_v2.json"));
  EXPECT_EQ(t.schema_version, 2);
  EXPECT_EQ(t.provenance.bench, "fixture_v2");
  EXPECT_EQ(t.provenance.repeat, 4u);
  ASSERT_EQ(t.stages.size(), 2u);
  ASSERT_EQ(t.stages[1].samples.size(), 4u);
  EXPECT_FALSE(t.stages[0].has_quantiles);
  EXPECT_FALSE(t.stages[1].has_quantiles);
}

TEST(ObsTelemetry, LoadsV3FixtureWithQuantiles) {
  const auto t = obs::parse_bench_telemetry(obs::json::parse_file(
      std::string(VARPRED_TEST_DATA_DIR) + "/telemetry_v3.json"));
  EXPECT_EQ(t.schema_version, 3);
  EXPECT_EQ(t.provenance.bench, "fixture_v3");
  ASSERT_EQ(t.stages.size(), 2u);
  ASSERT_TRUE(t.stages[0].has_quantiles);
  EXPECT_DOUBLE_EQ(t.stages[0].quantiles.p50, 0.1);
  EXPECT_DOUBLE_EQ(t.stages[0].quantiles.p90, 0.11);
  ASSERT_TRUE(t.stages[1].has_quantiles);
  EXPECT_DOUBLE_EQ(t.stages[1].quantiles.p50, 0.205);
  EXPECT_DOUBLE_EQ(t.stages[1].quantiles.p999, 0.21);
}

TEST(ObsTelemetry, RejectsPartialQuantileSets) {
  const std::string doc =
      "{\"schema_version\":3,\"bench\":\"b\",\"stages\":"
      "[{\"name\":\"s\",\"samples\":[0.1],\"p50\":0.1,\"p90\":0.1}]}";
  EXPECT_THROW(obs::parse_bench_telemetry(obs::json::parse(doc)),
               std::invalid_argument);
  const std::string bad_type =
      "{\"schema_version\":3,\"bench\":\"b\",\"stages\":"
      "[{\"name\":\"s\",\"samples\":[0.1],\"p50\":0.1,\"p90\":0.1,"
      "\"p99\":\"x\",\"p999\":0.1}]}";
  EXPECT_THROW(obs::parse_bench_telemetry(obs::json::parse(bad_type)),
               std::invalid_argument);
}

TEST(EnumNames, OutOfRangeModeThrows) {
  EXPECT_THROW(obs::to_string(static_cast<obs::Mode>(99)),
               std::invalid_argument);
}

}  // namespace
}  // namespace varpred
