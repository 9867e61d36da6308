// Tests for the common substrate: RNG determinism and statistics, thread
// pool semantics, dense linear solve, and text helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/detmath.hpp"
#include "common/linalg.hpp"
#include "common/rng.hpp"
#include "common/parse.hpp"
#include "common/simd.hpp"
#include "common/text.hpp"
#include "common/thread_pool.hpp"

namespace varpred {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(VARPRED_CHECK(false, "boom"), CheckError);
  EXPECT_THROW(VARPRED_CHECK_ARG(false, "bad arg"), std::invalid_argument);
  try {
    VARPRED_CHECK(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LE(same, 1);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.uniform_index(10)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), 10000.0, 450.0);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(123);
  Rng child = parent.split();
  // The child must not replay the parent's stream.
  Rng parent_copy(123);
  parent_copy.split();
  int matches = 0;
  for (int i = 0; i < 64; ++i) {
    matches += (child.next_u64() == parent.next_u64());
  }
  EXPECT_LE(matches, 1);
}

TEST(Rng, ReseedRestartsTheStream) {
  Rng fresh(77);
  Rng reused(5);
  for (int i = 0; i < 10; ++i) reused();
  reused.reseed(77);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fresh(), reused()) << "draw " << i;
}

TEST(Rng, StableHashIsStableAndSpread) {
  EXPECT_EQ(stable_hash("specomp/376"), stable_hash("specomp/376"));
  EXPECT_NE(stable_hash("specomp/376"), stable_hash("specomp/372"));
  EXPECT_NE(stable_hash("a"), stable_hash("b"));
  // Hash of empty string is defined.
  EXPECT_EQ(stable_hash(""), stable_hash(std::string_view{}));
}

TEST(Rng, SeedCombineIsOrderSensitive) {
  EXPECT_NE(seed_combine(1, 2), seed_combine(2, 1));
  EXPECT_EQ(seed_combine(1, 2), seed_combine(1, 2));
}

TEST(ThreadPool, ParseWorkerCountAcceptsOneTo256) {
  EXPECT_EQ(parse_worker_count("1"), 1u);
  EXPECT_EQ(parse_worker_count("4"), 4u);
  EXPECT_EQ(parse_worker_count("256"), 256u);
}

TEST(ThreadPool, ParseWorkerCountRejectsMalformedValues) {
  // Parsed only: no pool is ever built from these.
  for (const char* text : {"", "0", "-1", "+2", "4x", " 4", "0x4", "257",
                           "18446744073709551616"}) {
    try {
      parse_worker_count(text);
      ADD_FAILURE() << "'" << text << "' parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("VARPRED_WORKERS"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ThreadPool, GlobalPoolSizeFollowsTheEnvironment) {
  // Runs with and without VARPRED_WORKERS set (the .workers1 ctest twins
  // set it to 1).
  const char* env = std::getenv("VARPRED_WORKERS");
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  EXPECT_EQ(ThreadPool::global().worker_count(),
            env == nullptr ? hardware : parse_worker_count(env));
}

TEST(ThreadPool, RunsEveryIteration) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, ZeroAndOneIterations) {
  ThreadPool pool(3);
  int count = 0;
  pool.parallel_for(0, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  pool.parallel_for(1, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 1);
}

// Regression for the stale-task bug: the old scheduler enqueued one helper
// task per worker, and when the loop finished before every helper had been
// dequeued, the leftovers stayed in the queue holding a dangling reference
// to the caller's (stack-lived) body. The rebuilt pool erases its span's
// entries (by epoch) before parallel_for returns, so the queue must be empty
// at return — every time, not just when the timing is lucky.
TEST(ThreadPool, NoTaskSurvivesParallelFor) {
  ThreadPool pool(8);
  for (int rep = 0; rep < 200; ++rep) {
    // Tiny loop bodies: with 8 workers and only a handful of chunks, most
    // helper entries would go stale under the old scheduler.
    pool.parallel_for(4, [](std::size_t) {});
    EXPECT_EQ(pool.stats().queue_depth, 0u);
  }
}

TEST(ThreadPool, ChunkedRunsEveryIterationOnce) {
  ThreadPool pool(4);
  // Large enough that the default grain exceeds 1 (chunks of ~n/256).
  std::vector<std::atomic<int>> hits(100000);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRangeCoversDisjointChunks) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  const std::size_t grain = 512;
  std::vector<std::atomic<int>> hits(n);
  std::atomic<int> oversized{0};
  pool.parallel_for_range(
      n,
      [&](std::size_t begin, std::size_t end) {
        if (end - begin > grain) oversized.fetch_add(1);
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      },
      grain);
  EXPECT_EQ(oversized.load(), 0);
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, RangeExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_range(100000,
                                       [](std::size_t begin, std::size_t) {
                                         if (begin > 0)
                                           throw std::runtime_error("x");
                                       }),
               std::runtime_error);
  EXPECT_EQ(pool.stats().queue_depth, 0u);
}

// The seed guarantee: identical results for 1, 2, and N workers. For
// parallel_reduce this is bitwise equality — chunk boundaries depend only on
// (n, grain) and partials are combined in chunk order, so the floating-point
// evaluation tree never depends on which worker ran which chunk.
TEST(ThreadPool, ParallelReduceIndependentOfWorkerCount) {
  const std::size_t n = 123457;
  const auto run = [n](std::size_t workers) {
    ThreadPool pool(workers);
    return pool.parallel_reduce(
        n, 0.0,
        [](std::size_t begin, std::size_t end) {
          double s = 0.0;
          for (std::size_t i = begin; i < end; ++i) {
            const double x = static_cast<double>(i) * 1e-3;
            s += std::sin(x) / (1.0 + x);  // order-sensitive in FP
          }
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double one = run(1);
  const double two = run(2);
  const double many = run(8);
  EXPECT_EQ(one, two);  // bitwise, not approximate
  EXPECT_EQ(one, many);
  // And sane: close to the serial left-to-right sum.
  double serial = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) * 1e-3;
    serial += std::sin(x) / (1.0 + x);
  }
  EXPECT_NEAR(one, serial, 1e-9 * std::fabs(serial));
}

TEST(ThreadPool, ParallelForIndependentOfWorkerCount) {
  const std::size_t n = 10007;
  const auto run = [n](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<double> out(n);
    pool.parallel_for(n, [&](std::size_t i) {
      out[i] = std::cos(static_cast<double>(i));
    });
    return out;
  };
  const auto one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(8));
}

TEST(ThreadPool, StatsCountersTrackSpans) {
  ThreadPool pool(4);
  const PoolStats before = pool.stats();
  EXPECT_EQ(before.jobs, 0u);
  EXPECT_EQ(before.iterations, 0u);

  pool.parallel_for(100000, [](std::size_t) {});
  pool.parallel_for_range(50000, [](std::size_t, std::size_t) {});

  const PoolStats after = pool.stats();
  EXPECT_EQ(after.jobs, 2u);
  EXPECT_EQ(after.iterations, 150000u);
  EXPECT_GE(after.chunks, 2u);
  // Every dequeued entry either ran chunks or was counted as stale.
  EXPECT_GE(after.wakeups, after.stale_skipped);
  EXPECT_EQ(after.queue_depth, 0u);

  pool.reset_stats();
  EXPECT_EQ(pool.stats().jobs, 0u);
  EXPECT_EQ(pool.stats().iterations, 0u);
}

// reset_stats() returns the counters accumulated since the previous reset,
// so callers get exact per-epoch deltas: the returned snapshots partition
// the total work with nothing dropped between epochs.
TEST(ThreadPool, ResetStatsReturnsEpochDelta) {
  ThreadPool pool(4);
  pool.parallel_for(10000, [](std::size_t) {});
  const PoolStats epoch1 = pool.reset_stats();
  EXPECT_EQ(epoch1.jobs, 1u);
  EXPECT_EQ(epoch1.iterations, 10000u);

  pool.parallel_for(2000, [](std::size_t) {});
  pool.parallel_for(3000, [](std::size_t) {});
  const PoolStats epoch2 = pool.reset_stats();
  EXPECT_EQ(epoch2.jobs, 2u);
  EXPECT_EQ(epoch2.iterations, 5000u);

  const PoolStats epoch3 = pool.reset_stats();
  EXPECT_EQ(epoch3.jobs, 0u);
  EXPECT_EQ(epoch3.iterations, 0u);
  EXPECT_EQ(epoch3.chunks, 0u);
}

// Concurrent reset_stats() calls partition the counter stream: every event
// lands in exactly one returned epoch, never zero (lost between a read and
// a zeroing store) and never two. Under the old read-then-zero scheme this
// test races a second resetter against the worker threads and loses events.
TEST(ThreadPool, ConcurrentResetsPartitionTheCounterStream) {
  ThreadPool pool(2);
  constexpr std::size_t kJobs = 200;
  constexpr std::size_t kIters = 1000;
  std::atomic<bool> stop{false};
  std::uint64_t stolen_jobs = 0;
  std::uint64_t stolen_iters = 0;
  std::thread resetter([&] {
    while (!stop.load()) {
      const PoolStats s = pool.reset_stats();
      stolen_jobs += s.jobs;
      stolen_iters += s.iterations;
    }
  });
  std::uint64_t main_jobs = 0;
  std::uint64_t main_iters = 0;
  for (std::size_t rep = 0; rep < kJobs; ++rep) {
    pool.parallel_for(kIters, [](std::size_t) {});
    const PoolStats s = pool.reset_stats();
    main_jobs += s.jobs;
    main_iters += s.iterations;
  }
  stop.store(true);
  resetter.join();
  const PoolStats tail = pool.reset_stats();
  EXPECT_EQ(stolen_jobs + main_jobs + tail.jobs, kJobs);
  EXPECT_EQ(stolen_iters + main_iters + tail.iterations, kJobs * kIters);
}

TEST(ThreadPool, WorkerCountHonoursTheRequest) {
  EXPECT_EQ(ThreadPool(1).worker_count(), 1u);
  EXPECT_EQ(ThreadPool(3).worker_count(), 3u);
  // 0 asks for the hardware concurrency, and never yields an empty pool.
  const std::size_t hw = std::thread::hardware_concurrency();
  EXPECT_EQ(ThreadPool(0).worker_count(), hw == 0 ? 1u : hw);
}

TEST(ThreadPool, GrainIsPureFunctionOfN) {
  EXPECT_EQ(ThreadPool::grain_for(1), 1u);
  EXPECT_EQ(ThreadPool::grain_for(255), 1u);
  EXPECT_EQ(ThreadPool::grain_for(1u << 20), (1u << 20) / 256);
  // Chunk count stays bounded for huge n.
  const std::size_t n = 100000000;
  const std::size_t grain = ThreadPool::grain_for(n);
  EXPECT_LE((n + grain - 1) / grain, 257u);
}

TEST(Linalg, SolvesIdentity) {
  const std::vector<double> a = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  const std::vector<double> b = {3, -1, 2};
  const auto x = solve_dense(a, b, 3);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], -1.0, 1e-12);
  EXPECT_NEAR(x[2], 2.0, 1e-12);
}

TEST(Linalg, SolvesGeneralSystemNeedingPivot) {
  // First pivot is zero, forcing a row swap.
  const std::vector<double> a = {0, 2, 1, 1, 1, 1, 2, 1, 3};
  const std::vector<double> b = {5, 6, 13};
  const auto x = solve_dense(a, b, 3);
  // Verify A x == b.
  EXPECT_NEAR(0 * x[0] + 2 * x[1] + 1 * x[2], 5.0, 1e-10);
  EXPECT_NEAR(1 * x[0] + 1 * x[1] + 1 * x[2], 6.0, 1e-10);
  EXPECT_NEAR(2 * x[0] + 1 * x[1] + 3 * x[2], 13.0, 1e-10);
}

TEST(Linalg, ThrowsOnSingular) {
  const std::vector<double> a = {1, 2, 2, 4};
  const std::vector<double> b = {1, 2};
  EXPECT_THROW(solve_dense(a, b, 2), CheckError);
}

TEST(Linalg, Dot) {
  const std::vector<double> u = {1, 2};
  const std::vector<double> v = {3, 4};
  EXPECT_DOUBLE_EQ(dot(u, v), 11.0);
  EXPECT_THROW(dot(u, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Text, SplitJoinRoundTrip) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, ","), "a,b,,c");
}

TEST(Text, PadRight) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_right("abcdef", 3), "abc");
}

TEST(Text, FormatFixed) {
  EXPECT_EQ(format_fixed(0.2416, 3), "0.242");
  EXPECT_EQ(format_fixed(-1.0, 1), "-1.0");
}


TEST(Text, StartsWith) {
  EXPECT_TRUE(starts_with("BENCH_run.json", "BENCH_"));
  EXPECT_TRUE(starts_with("abc", ""));
  EXPECT_TRUE(starts_with("abc", "abc"));
  EXPECT_FALSE(starts_with("abc", "abcd"));
  EXPECT_FALSE(starts_with("abc", "b"));
  EXPECT_FALSE(starts_with("", "a"));
}

TEST(Parse, DoubleStrictAcceptsExactTokens) {
  EXPECT_EQ(parse_double_strict("1.5"), 1.5);
  EXPECT_EQ(parse_double_strict("-0.25"), -0.25);
  EXPECT_EQ(parse_double_strict("1e3"), 1000.0);
  EXPECT_EQ(parse_double_strict("0"), 0.0);
  // inf/nan parse; finiteness is the flag helper's job.
  ASSERT_TRUE(parse_double_strict("inf").has_value());
  EXPECT_TRUE(std::isinf(*parse_double_strict("inf")));
  ASSERT_TRUE(parse_double_strict("nan").has_value());
  EXPECT_TRUE(std::isnan(*parse_double_strict("nan")));
}

TEST(Parse, DoubleStrictRejectsLaxInput) {
  EXPECT_FALSE(parse_double_strict("").has_value());
  EXPECT_FALSE(parse_double_strict("abc").has_value());
  EXPECT_FALSE(parse_double_strict("1.5x").has_value());
  EXPECT_FALSE(parse_double_strict(" 1.5").has_value());
  EXPECT_FALSE(parse_double_strict("1.5 ").has_value());
  EXPECT_FALSE(parse_double_strict("1e999").has_value());  // ERANGE
}

TEST(Parse, U64StrictAcceptsDecimalDigitsOnly) {
  EXPECT_EQ(parse_u64_strict("0"), 0u);
  EXPECT_EQ(parse_u64_strict("42"), 42u);
  EXPECT_EQ(parse_u64_strict("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Parse, U64StrictRejectsLaxInput) {
  EXPECT_FALSE(parse_u64_strict("").has_value());
  EXPECT_FALSE(parse_u64_strict("-1").has_value());   // strtoull would wrap
  EXPECT_FALSE(parse_u64_strict("+1").has_value());
  EXPECT_FALSE(parse_u64_strict("0x10").has_value());
  EXPECT_FALSE(parse_u64_strict("1e3").has_value());  // strtoull would stop at e
  EXPECT_FALSE(parse_u64_strict("12kb").has_value());
  EXPECT_FALSE(parse_u64_strict("12.5").has_value());
  EXPECT_FALSE(parse_u64_strict(" 12").has_value());
  EXPECT_FALSE(parse_u64_strict("18446744073709551616").has_value());  // 2^64
}

TEST(Parse, I64StrictHandlesSignsAndBounds) {
  EXPECT_EQ(parse_i64_strict("-5"), -5);
  EXPECT_EQ(parse_i64_strict("+5"), 5);
  EXPECT_EQ(parse_i64_strict("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse_i64_strict("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE(parse_i64_strict("9223372036854775808").has_value());
  EXPECT_FALSE(parse_i64_strict("-").has_value());
  EXPECT_FALSE(parse_i64_strict("1x").has_value());
  EXPECT_FALSE(parse_i64_strict("").has_value());
}

TEST(Parse, RequireFlagHelpersThrowNamingTheFlag) {
  EXPECT_EQ(require_double_flag("--alpha", "0.01"), 0.01);
  EXPECT_EQ(require_u64_flag("--runs", "100"), 100u);
  EXPECT_EQ(require_finite_double_flag("--tolerance", "2.5"), 2.5);
  try {
    require_double_flag("--alpha", "abc");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--alpha"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("abc"), std::string::npos);
  }
  EXPECT_THROW(require_finite_double_flag("--tolerance", "inf"),
               std::invalid_argument);
  EXPECT_THROW(require_finite_double_flag("--tolerance", "nan"),
               std::invalid_argument);
  EXPECT_THROW(require_u64_flag("--runs", "bogus"), std::invalid_argument);
  EXPECT_THROW(require_u64_flag("--runs", "-3"), std::invalid_argument);
}

// ---- detmath ----

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

// exp of one value, through the dispatched block.
double exp_of(double x) {
  double y = 0.0;
  detmath::exp_block(std::span<const double>(&x, 1), std::span<double>(&y, 1));
  return y;
}

// Inputs around every branch of exp: zeros, subnormals, the 2^-54 and 512
// fast-path edges, overflow (> 709.78) and underflow (< -745.13) with the
// subnormal range between, 1024, infinities, NaNs and random bit patterns.
std::vector<double> exp_sweep() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> xs = {0.0,
                            -0.0,
                            std::numeric_limits<double>::denorm_min(),
                            0x1p-1040,
                            0x1p-55,
                            0x1p-54,
                            std::nextafter(0x1p-54, 0.0),
                            1.0,
                            0x1.62e42fefa39efp-1,  // ln 2
                            511.999,
                            512.0,
                            709.78,
                            709.79,
                            1023.99,
                            1024.0,
                            1e300,
                            kInf,
                            std::numeric_limits<double>::quiet_NaN(),
                            -std::numeric_limits<double>::quiet_NaN(),
                            std::bit_cast<double>(0x7ff4000000000001ULL)};
  const std::size_t n_named = xs.size();
  for (std::size_t i = 0; i < n_named; ++i) xs.push_back(-xs[i]);
  for (const double edge : {-708.39, -708.4, -744.44, -745.13, -745.14,
                            -1022.0 * 0x1.62e42fefa39efp-1}) {
    xs.push_back(edge);
  }
  for (double x = -1100.0; x <= 1100.0; x += 0.37) xs.push_back(x);
  for (int e = -60; e <= 11; ++e) {
    for (const double m : {1.0, 1.3, 1.7, 1.999}) {
      xs.push_back(std::ldexp(m, e));
      xs.push_back(-std::ldexp(m, e));
    }
  }
  Rng rng(2024);
  for (int i = 0; i < 4000; ++i) {
    xs.push_back(std::bit_cast<double>(rng.next_u64()));
  }
  for (int i = 0; i < 1 << 14; ++i) xs.push_back(rng.uniform(-40.0, 40.0));
  return xs;
}

// Inputs around every branch of log: x <= 0, subnormals, the normal edge,
// the near-1 window [1 - 2^-4, 1 + 0x1.09p-4) and its edges, 1 itself,
// large values, infinities, NaNs and random bit patterns.
std::vector<double> log_sweep() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> xs = {0.0,
                            -0.0,
                            -1.0,
                            -kInf,
                            kInf,
                            std::numeric_limits<double>::quiet_NaN(),
                            -std::numeric_limits<double>::quiet_NaN(),
                            std::bit_cast<double>(0x7ff4000000000001ULL),
                            std::numeric_limits<double>::denorm_min(),
                            0x1p-1030,
                            std::nextafter(0x1p-1022, 0.0),
                            0x1p-1022,
                            std::numeric_limits<double>::max(),
                            -std::numeric_limits<double>::denorm_min(),
                            1.0,
                            std::nextafter(1.0, 0.0),
                            std::nextafter(1.0, 2.0),
                            1.0 - 0x1p-4,
                            std::nextafter(1.0 - 0x1p-4, 0.0),
                            1.0 + 0x1.09p-4,
                            std::nextafter(1.0 + 0x1.09p-4, 0.0),
                            2.0,
                            0.5};
  for (double x = 1.0 - 0x1p-4 - 0x1p-8; x <= 1.0 + 0x1p-4 + 0x1p-8;
       x += 0x1p-12) {
    xs.push_back(x);
  }
  for (int e = -1074; e <= 1023; e += 3) {
    xs.push_back(std::ldexp(1.37, e));
    xs.push_back(-std::ldexp(1.37, e));
  }
  Rng rng(2025);
  for (int i = 0; i < 4000; ++i) {
    xs.push_back(std::bit_cast<double>(rng.next_u64()));
  }
  for (int i = 0; i < 1 << 13; ++i) {
    xs.push_back(rng.uniform());
    xs.push_back(rng.uniform(1.0 - 0x1p-4, 1.0 + 0x1.09p-4));
  }
  return xs;
}

using BlockArm = void (*)(const double*, double*, std::size_t);

// Every arm exp_block can take on this machine, with its name.
std::vector<std::pair<const char*, BlockArm>> exp_arms() {
  std::vector<std::pair<const char*, BlockArm>> arms = {
      {"scalar", detmath::detail::exp_block_scalar}};
#ifdef VARPRED_SIMD_AVX2
  if (cpu_has_avx2()) {
    arms.emplace_back("avx2", detmath::detail::exp_block_avx2);
  }
#endif
  return arms;
}

// log_block has the scalar twin only.
std::vector<std::pair<const char*, BlockArm>> log_arms() {
  return {{"scalar", [](const double* x, double* out, std::size_t n) {
             detmath::log_block(std::span<const double>(x, n),
                                std::span<double>(out, n));
           }}};
}

// Runs `arm` over xs in blocks of every length from 1 to 9 in turn, so
// both full vectors and every short tail are exercised, then once in place.
std::vector<double> run_arm(BlockArm arm, const std::vector<double>& xs) {
  std::vector<double> out(xs.size());
  for (std::size_t i = 0, len = 1; i < xs.size(); i += len, len = len % 9 + 1) {
    const std::size_t n = std::min(len, xs.size() - i);
    arm(xs.data() + i, out.data() + i, n);
  }
  std::vector<double> in_place = xs;
  arm(in_place.data(), in_place.data(), in_place.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(bits_of(in_place[i]), bits_of(out[i])) << "in place, x=" << xs[i];
  }
  return out;
}

TEST(DetMath, ArmsAgreeBitForBitOnEdgeSweep) {
  using Arms = std::vector<std::pair<const char*, BlockArm>>;
  const auto check = [](const std::vector<double>& xs, const Arms& arms,
                        double (*one)(double), const char* fn) {
    for (const auto& [name, arm] : arms) {
      const std::vector<double> out = run_arm(arm, xs);
      for (std::size_t i = 0; i < xs.size(); ++i) {
        ASSERT_EQ(bits_of(out[i]), bits_of(one(xs[i])))
            << fn << " arm " << name << " x=" << std::hexfloat << xs[i];
      }
    }
  };
  check(exp_sweep(), exp_arms(), exp_of, "exp");
  check(log_sweep(), log_arms(), detmath::log, "log");
}

TEST(DetMath, SpecialValuesFollowGlibc) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(bits_of(exp_of(0.0)), bits_of(1.0));
  EXPECT_EQ(bits_of(exp_of(-0.0)), bits_of(1.0));
  EXPECT_EQ(exp_of(kInf), kInf);
  EXPECT_EQ(bits_of(exp_of(-kInf)), bits_of(0.0));
  EXPECT_EQ(exp_of(709.79), kInf);
  EXPECT_EQ(bits_of(exp_of(-745.14)), bits_of(0.0));
  EXPECT_EQ(exp_of(-745.13), std::numeric_limits<double>::denorm_min());
  EXPECT_TRUE(std::isnan(exp_of(std::nan(""))));
  EXPECT_EQ(bits_of(detmath::log(1.0)), bits_of(0.0));
  EXPECT_EQ(detmath::log(0.0), -kInf);
  EXPECT_EQ(detmath::log(-0.0), -kInf);
  EXPECT_EQ(detmath::log(kInf), kInf);
  EXPECT_TRUE(std::isnan(detmath::log(-1.0)));
  EXPECT_TRUE(std::isnan(detmath::log(-kInf)));
  EXPECT_DOUBLE_EQ(detmath::log(std::numeric_limits<double>::denorm_min()),
                   -1074.0 * 0x1.62e42fefa39efp-1);
  std::vector<double> out(3);
  const std::vector<double> in(4, 1.0);
  EXPECT_THROW(detmath::exp_block(in, out), std::invalid_argument);
  EXPECT_THROW(detmath::log_block(in, out), std::invalid_argument);
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// FNV-1a over the bits of `ys`, continuing from `h`.
std::uint64_t fnv1a(std::uint64_t h, const std::vector<double>& ys) {
  for (const double y : ys) {
    const std::uint64_t word = bits_of(y);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xFFU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Calls fn(exp_inputs, log_inputs) on 153 blocks of 2^16 inputs each, over
// 10^7 per function: exp over the fast path and past both of its ends, log
// over (0, 1) (the polar method's range), the near-1 window, (0, 10) and
// random positive bit patterns. One unfused step in either arm moves the
// last bit of a few inputs per ten million, so it takes this many to show.
template <typename Fn>
void for_each_dense_block(Fn fn) {
  constexpr std::size_t kBlock = 1 << 16;
  constexpr std::size_t kBlocks = 153;
  Rng rng(7);
  std::vector<double> xe(kBlock);
  std::vector<double> xl(kBlock);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    for (std::size_t i = 0; i < kBlock; ++i) {
      switch (i % 4) {
        case 0: xe[i] = rng.uniform(-20.0, 20.0); break;
        case 1: xe[i] = rng.uniform(-760.0, 760.0); break;
        case 2: xe[i] = rng.uniform(-1.0, 1.0) * 0x1p-20; break;
        default: xe[i] = rng.uniform(-2.0, 2.0); break;
      }
      switch (i % 4) {
        case 0: xl[i] = rng.uniform(); break;
        case 1: xl[i] = rng.uniform(1.0 - 0x1p-4, 1.0 + 0x1.09p-4); break;
        case 2: xl[i] = std::bit_cast<double>(rng.next_u64() >> 1); break;
        default: xl[i] = rng.uniform(0.0, 10.0); break;
      }
    }
    fn(xe, xl);
  }
}

// The bits detmath returns, pinned on every CPU and every libm: one digest
// per function over the edge sweeps and one over the dense inputs, the
// same from every arm (so the arms agree there bit for bit as well).
TEST(DetMath, DigestsOnEveryArm) {
  const auto run = [](BlockArm arm, const std::vector<double>& xs) {
    std::vector<double> out(xs.size());
    arm(xs.data(), out.data(), xs.size());
    return out;
  };
  const std::vector<double> exp_edges = exp_sweep();
  const std::vector<double> log_edges = log_sweep();
  for (const auto& [name, arm] : exp_arms()) {
    EXPECT_EQ(fnv1a(kFnvBasis, run(arm, exp_edges)), 0x3443cf8c13ddfb89ULL)
        << name;
    std::uint64_t dense = kFnvBasis;
    for_each_dense_block([&, arm = arm](const auto& xe, const auto&) {
      dense = fnv1a(dense, run(arm, xe));
    });
    EXPECT_EQ(dense, 0x390ac310fbb7cf7cULL) << name;
  }
  for (const auto& [name, arm] : log_arms()) {
    EXPECT_EQ(fnv1a(kFnvBasis, run(arm, log_edges)), 0xb718adf856d0d838ULL)
        << name;
    std::uint64_t dense = kFnvBasis;
    for_each_dense_block([&, arm = arm](const auto&, const auto& xl) {
      dense = fnv1a(dense, run(arm, xl));
    });
    EXPECT_EQ(dense, 0xf01efb8a4f6ef218ULL) << name;
  }
}

// glibc runs its FMA exp/log when the CPU has FMA and AVX2 and the
// glibc.cpu.hwcaps tunable leaves FMA on. This input tells the variants
// apart: the FMA exp returns ...9b, the other one (and the correctly
// rounded value) ...9c. The volatile keeps the compiler from folding the
// call with its own correctly rounded exp.
bool libm_runs_fma_variant() {
  volatile double sentinel = 0x1.6689b16db0546p+2;
  return std::exp(sentinel) == 0x1.0f0272e893f9bp+8;
}

TEST(DetMath, MatchesLibmWhenLibmRunsItsFmaVariant) {
  if (!libm_runs_fma_variant()) {
    GTEST_SKIP() << "libm runs its non-FMA exp here";
  }
  std::size_t exp_mismatches = 0;
  std::size_t log_mismatches = 0;
  std::vector<double> out;
  for_each_dense_block([&](const auto& xe, const auto& xl) {
    out.resize(xe.size());
    detmath::exp_block(xe, out);
    for (std::size_t i = 0; i < xe.size(); ++i) {
      exp_mismatches += bits_of(out[i]) != bits_of(std::exp(xe[i]));
    }
    detmath::log_block(xl, out);
    for (std::size_t i = 0; i < xl.size(); ++i) {
      log_mismatches += bits_of(out[i]) != bits_of(std::log(xl[i]));
    }
  });
  // exp's k < 0 special case, densely: 10^6 inputs whose results are
  // subnormal, where its hand-rounded sum decides the last bit.
  std::vector<double> xs(1000000);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = -745.13 + 36.73 * static_cast<double>(i) /
                          static_cast<double>(xs.size() - 1);
  }
  out.resize(xs.size());
  detmath::exp_block(xs, out);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    exp_mismatches += bits_of(out[i]) != bits_of(std::exp(xs[i]));
  }
  // And every branch of both functions, on the edge sweeps.
  for (const double x : exp_sweep()) {
    exp_mismatches += bits_of(exp_of(x)) != bits_of(std::exp(x));
  }
  for (const double x : log_sweep()) {
    log_mismatches += bits_of(detmath::log(x)) != bits_of(std::log(x));
  }
  EXPECT_EQ(exp_mismatches, 0u);
  EXPECT_EQ(log_mismatches, 0u);
}

}  // namespace
}  // namespace varpred
