#include "common/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace varpred {
namespace {

constexpr std::size_t kMaxWorkers = 256;

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

std::size_t parse_worker_count(std::string_view text) {
  const auto parsed = parse_u64_strict(text);
  VARPRED_CHECK_ARG(
      parsed.has_value() && *parsed >= 1 && *parsed <= kMaxWorkers,
      "VARPRED_WORKERS must be an integer in [1, " +
          std::to_string(kMaxWorkers) + "], got '" + std::string(text) + "'");
  return static_cast<std::size_t>(*parsed);
}

// One parallel_for/parallel_reduce span. Workers pull chunk indices from
// `next`; the span is complete once `done` reaches `num_chunks`. The body
// lives on the caller's stack — safe because the caller blocks until `done`
// and erases its epoch's queue entries before returning, and any concurrently
// dequeued stale entry sees an exhausted cursor and never touches `body`.
struct ThreadPool::Job {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t num_chunks = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;
  std::mutex done_mutex;
  std::condition_variable done_cv;
};

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::drain(Job& job) {
  bool ran = false;
  for (;;) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.num_chunks) break;
    ran = true;
    const std::size_t begin = c * job.grain;
    const std::size_t end = std::min(job.n, begin + job.grain);
    try {
      if (!job.failed.load(std::memory_order_relaxed)) (*job.body)(begin, end);
    } catch (...) {
      std::lock_guard lock(job.error_mutex);
      if (!job.error) job.error = std::current_exception();
      job.failed.store(true, std::memory_order_relaxed);
    }
    chunks_.fetch_add(1, std::memory_order_relaxed);
    iterations_.fetch_add(end - begin, std::memory_order_relaxed);
    if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.num_chunks) {
      std::lock_guard lock(job.done_mutex);
      job.done_cv.notify_all();
    }
  }
  return ran;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lock(mutex_);
      const auto idle_start = std::chrono::steady_clock::now();
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      idle_ns_.fetch_add(elapsed_ns(idle_start), std::memory_order_relaxed);
      if (stopping_ && tasks_.empty()) return;
      job = std::move(tasks_.front().job);
      tasks_.pop_front();
    }
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    const auto busy_start = std::chrono::steady_clock::now();
    if (!drain(*job)) {
      stale_skipped_.fetch_add(1, std::memory_order_relaxed);
    }
    busy_ns_.fetch_add(elapsed_ns(busy_start), std::memory_order_relaxed);
  }
}

void ThreadPool::parallel_for_range(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain) {
  if (n == 0) return;
  if (grain == 0) grain = grain_for(n);
  const std::size_t num_chunks = (n + grain - 1) / grain;
  if (num_chunks == 1 || worker_count() == 1) {
    body(0, n);
    jobs_.fetch_add(1, std::memory_order_relaxed);
    chunks_.fetch_add(1, std::memory_order_relaxed);
    iterations_.fetch_add(n, std::memory_order_relaxed);
    return;
  }

  auto job = std::make_shared<Job>();
  job->body = &body;
  job->n = n;
  job->grain = grain;
  job->num_chunks = num_chunks;

  std::uint64_t epoch = 0;
  {
    std::lock_guard lock(mutex_);
    epoch = ++next_epoch_;
    // The caller claims chunks too, so at most num_chunks - 1 helpers can
    // ever find work.
    const std::size_t helpers = std::min(worker_count(), num_chunks - 1);
    for (std::size_t w = 0; w < helpers; ++w) {
      tasks_.push_back(Entry{epoch, job});
    }
  }
  cv_.notify_all();

  drain(*job);  // caller thread participates (also keeps nested calls live)

  {
    std::unique_lock lock(job->done_mutex);
    job->done_cv.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) >= job->num_chunks;
    });
  }

  // Epoch invalidation: any helper entry of this span still queued would
  // outlive `body`'s lifetime, so erase them before returning. Entries
  // already dequeued hold the Job alive via shared_ptr, see an exhausted
  // cursor, and count as stale wakeups.
  {
    std::lock_guard lock(mutex_);
    std::erase_if(tasks_, [&](const Entry& e) { return e.epoch == epoch; });
  }
  jobs_.fetch_add(1, std::memory_order_relaxed);

  if (job->error) std::rethrow_exception(job->error);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (n == 1 || worker_count() == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    jobs_.fetch_add(1, std::memory_order_relaxed);
    chunks_.fetch_add(1, std::memory_order_relaxed);
    iterations_.fetch_add(n, std::memory_order_relaxed);
    return;
  }
  parallel_for_range(n, [&body](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

PoolStats ThreadPool::raw_minus_baseline() const {
  PoolStats s;
  s.jobs = jobs_.load(std::memory_order_relaxed) - baseline_.jobs;
  s.chunks = chunks_.load(std::memory_order_relaxed) - baseline_.chunks;
  s.iterations =
      iterations_.load(std::memory_order_relaxed) - baseline_.iterations;
  s.wakeups = wakeups_.load(std::memory_order_relaxed) - baseline_.wakeups;
  s.stale_skipped =
      stale_skipped_.load(std::memory_order_relaxed) - baseline_.stale_skipped;
  s.busy_ns = busy_ns_.load(std::memory_order_relaxed) - baseline_.busy_ns;
  s.idle_ns = idle_ns_.load(std::memory_order_relaxed) - baseline_.idle_ns;
  return s;
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  {
    std::lock_guard lock(stats_mutex_);
    s = raw_minus_baseline();
  }
  {
    std::lock_guard lock(mutex_);
    s.queue_depth = tasks_.size();
  }
  return s;
}

PoolStats ThreadPool::reset_stats() {
  PoolStats previous;
  {
    std::lock_guard lock(stats_mutex_);
    previous = raw_minus_baseline();
    // Advance the baseline instead of zeroing the hot counters: writers
    // keep racing relaxed increments, but every reader subtracts a baseline
    // frozen under stats_mutex_, so no snapshot can mix counting epochs.
    baseline_.jobs += previous.jobs;
    baseline_.chunks += previous.chunks;
    baseline_.iterations += previous.iterations;
    baseline_.wakeups += previous.wakeups;
    baseline_.stale_skipped += previous.stale_skipped;
    baseline_.busy_ns += previous.busy_ns;
    baseline_.idle_ns += previous.idle_ns;
  }
  {
    std::lock_guard lock(mutex_);
    previous.queue_depth = tasks_.size();
  }
  return previous;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    const char* env = std::getenv("VARPRED_WORKERS");
    return env == nullptr ? std::size_t{0} : parse_worker_count(env);
  }());
  return pool;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  ThreadPool::global().parallel_for(n, body);
}

void parallel_for_range(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain) {
  ThreadPool::global().parallel_for_range(n, body, grain);
}

}  // namespace varpred
