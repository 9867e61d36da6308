// Tests for the common substrate: RNG determinism and statistics, thread
// pool semantics, dense linear solve, and text helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
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
#include "common/linalg.hpp"
#include "common/rng.hpp"
#include "common/parse.hpp"
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

}  // namespace
}  // namespace varpred
