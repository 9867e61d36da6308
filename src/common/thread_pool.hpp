// Chunked parallel runtime: fixed-size thread pool with parallel_for /
// parallel_for_range / parallel_reduce and lightweight telemetry.
//
// Forest training, corpus generation, cross-validation folds, bootstrap
// resampling, and the KNN distance kernel all run on this pool. Results must
// be independent of the worker count: callers write into pre-sized output
// slots indexed by iteration, any per-task randomness is seeded per index
// (never per thread), and parallel_reduce combines chunk partials in chunk
// order with chunk boundaries that depend only on (n, grain) — never on how
// many workers happened to claim them.
//
// Scheduling: each parallel_for span is one heap-allocated Job. Workers and
// the calling thread claim contiguous [begin, end) chunks from the job's
// atomic cursor, so the per-element cost is amortized over `grain` iterations
// instead of paying one fetch_add plus one std::function dispatch per index.
// Each queue entry carries the job's epoch token; when a span completes, the
// caller erases every entry tagged with its epoch before returning, so no
// task referring to the (stack-lived) loop body can survive the call.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace varpred {

/// Parses a VARPRED_WORKERS value: a plain decimal integer in [1, 256].
/// Throws std::invalid_argument naming the variable on anything else
/// (empty, signed, trailing garbage, 0, above 256).
std::size_t parse_worker_count(std::string_view text);

/// Monotonic counters describing what a pool has done since construction
/// (or the last reset_stats()). Snapshot via ThreadPool::stats().
struct PoolStats {
  std::uint64_t jobs = 0;            ///< completed parallel_for/reduce spans
  std::uint64_t chunks = 0;          ///< [begin, end) blocks claimed and run
  std::uint64_t iterations = 0;      ///< total indices covered by those blocks
  std::uint64_t wakeups = 0;         ///< queue entries dequeued by workers
  std::uint64_t stale_skipped = 0;   ///< dequeued entries whose job had already finished
  std::uint64_t busy_ns = 0;         ///< worker time spent inside chunk bodies
  std::uint64_t idle_ns = 0;         ///< worker time spent waiting for work
  std::size_t queue_depth = 0;       ///< entries waiting right now (0 after any span returns)
};

/// A fixed-size thread pool running chunked parallel loops.
class ThreadPool {
 public:
  /// Creates a pool with `workers` threads; 0 means hardware_concurrency.
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const noexcept { return threads_.size(); }

  /// Runs body(i) for i in [0, n). Blocks until every iteration finished.
  /// The first exception thrown by any iteration is rethrown in the caller;
  /// once one iteration throws, chunks not yet started are skipped.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Runs body(begin, end) over disjoint chunks covering [0, n). `grain` is
  /// the chunk length (last chunk may be shorter); 0 picks grain_for(n).
  /// Blocks until done; first exception is rethrown in the caller.
  void parallel_for_range(std::size_t n,
                          const std::function<void(std::size_t, std::size_t)>& body,
                          std::size_t grain = 0);

  /// Deterministic parallel reduction: `chunk(begin, end) -> T` computes a
  /// partial per chunk, then partials are folded left-to-right in chunk
  /// order: combine(combine(identity, p0), p1)... Chunk boundaries depend
  /// only on (n, grain), so the result is independent of the worker count
  /// (and, with the default grain, identical on any machine).
  template <typename T, typename ChunkFn, typename CombineFn>
  T parallel_reduce(std::size_t n, T identity, ChunkFn&& chunk,
                    CombineFn&& combine, std::size_t grain = 0) {
    if (n == 0) return identity;
    if (grain == 0) grain = grain_for(n);
    const std::size_t num_chunks = (n + grain - 1) / grain;
    if (num_chunks == 1) {
      return combine(std::move(identity), chunk(std::size_t{0}, n));
    }
    // Partials are always computed per chunk — even on a 1-worker pool —
    // so the floating-point combine order (and thus the result) is a pure
    // function of (n, grain), never of the worker count.
    std::vector<T> partials(num_chunks, identity);
    if (worker_count() == 1) {
      for (std::size_t c = 0; c < num_chunks; ++c) {
        const std::size_t begin = c * grain;
        partials[c] = chunk(begin, std::min(n, begin + grain));
      }
    } else {
      parallel_for_range(
          n,
          [&](std::size_t begin, std::size_t end) {
            partials[begin / grain] = chunk(begin, end);
          },
          grain);
    }
    T acc = std::move(identity);
    for (auto& p : partials) acc = combine(std::move(acc), std::move(p));
    return acc;
  }

  /// Default chunk length: a pure function of n (deliberately *not* of the
  /// worker count) so reduce chunk boundaries — and hence floating-point
  /// combine order — are reproducible everywhere. Targets ~256 chunks, which
  /// load-balances any realistic pool while amortizing dispatch for large n.
  static std::size_t grain_for(std::size_t n) noexcept {
    const std::size_t g = n / kTargetChunks;
    return g == 0 ? 1 : g;
  }

  /// Telemetry snapshot: counters accumulated since construction or the
  /// last reset_stats(); queue_depth is current. All counter fields are
  /// taken against one consistent baseline under a single lock, so a
  /// concurrent reset can never yield a mixed-epoch snapshot.
  PoolStats stats() const;
  /// Starts a new counting epoch and returns the counters accumulated over
  /// the previous one (exact delta accounting; queue_depth is current).
  PoolStats reset_stats();

  /// Process-wide shared pool (lazily constructed): VARPRED_WORKERS
  /// workers when that variable is set (parse_worker_count), else one per
  /// hardware thread.
  static ThreadPool& global();

 private:
  static constexpr std::size_t kTargetChunks = 256;

  struct Job;
  struct Entry {
    std::uint64_t epoch = 0;
    std::shared_ptr<Job> job;
  };

  void worker_loop();
  /// Claims and runs chunks of `job` until its cursor is exhausted.
  /// Returns true if at least one chunk was executed.
  bool drain(Job& job);

  std::vector<std::thread> threads_;
  std::deque<Entry> tasks_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::uint64_t next_epoch_ = 0;  // guarded by mutex_

  /// Raw counter values minus the current baseline. Caller holds
  /// stats_mutex_ so the baseline cannot move mid-read.
  PoolStats raw_minus_baseline() const;

  // Telemetry (relaxed atomics; written by workers and callers). The raw
  // counters are monotone and never zeroed; reset_stats() instead advances
  // baseline_ (guarded by stats_mutex_), so readers subtract a baseline
  // that is consistent across all fields.
  std::atomic<std::uint64_t> jobs_{0};
  std::atomic<std::uint64_t> chunks_{0};
  std::atomic<std::uint64_t> iterations_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> stale_skipped_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> idle_ns_{0};
  mutable std::mutex stats_mutex_;
  PoolStats baseline_;  // guarded by stats_mutex_
};

/// Convenience wrappers over the global pool. parallel_for falls back to a
/// serial loop when the pool has a single worker (keeps small problems cheap).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);
void parallel_for_range(std::size_t n,
                        const std::function<void(std::size_t, std::size_t)>& body,
                        std::size_t grain = 0);

template <typename T, typename ChunkFn, typename CombineFn>
T parallel_reduce(std::size_t n, T identity, ChunkFn&& chunk,
                  CombineFn&& combine, std::size_t grain = 0) {
  return ThreadPool::global().parallel_reduce(
      n, std::move(identity), std::forward<ChunkFn>(chunk),
      std::forward<CombineFn>(combine), grain);
}

}  // namespace varpred
