// Component micro-benchmarks (google-benchmark): throughput of the
// statistical kernels, reconstruction paths, the simulator, and the three
// regressors. These are engineering benchmarks, not paper figures -- they
// document where the pipeline spends its time.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "bench_common.hpp"
#include "common/thread_pool.hpp"
#include "core/varpred.hpp"
#include "rngdist/samplers.hpp"
#include "maxent/maxent.hpp"
#include "ml/forest.hpp"
#include "ml/gbt.hpp"
#include "ml/knn.hpp"
#include "stats/sort.hpp"

namespace {

using namespace varpred;

std::vector<double> make_sample(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rngdist::normal(rng, 1.0, 0.02);
  return out;
}

// ---------------------------------------------------------------------------
// Parallel runtime: chunked scheduler vs the pre-rebuild per-index one.
//
// LegacyPerIndexPool reimplements the scheduler this repo shipped before the
// chunked rebuild: one queued std::function per helper, and every iteration
// pays a shared fetch_add plus a std::function dispatch. It exists only as
// the baseline for the BM_ParallelFor* pair below (the body is captured by
// value here, sidestepping the dangling-capture bug the rebuild fixed).
class LegacyPerIndexPool {
 public:
  explicit LegacyPerIndexPool(std::size_t workers) {
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  ~LegacyPerIndexPool() {
    {
      std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body) {
    struct Shared {
      std::atomic<std::size_t> next{0};
      std::atomic<std::size_t> done{0};
      std::mutex done_mutex;
      std::condition_variable done_cv;
    };
    auto shared = std::make_shared<Shared>();
    auto drain = [shared, n, body] {
      for (;;) {
        const std::size_t i =
            shared->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        body(i);
        if (shared->done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
          std::lock_guard lock(shared->done_mutex);
          shared->done_cv.notify_all();
        }
      }
    };
    {
      std::lock_guard lock(mutex_);
      const std::size_t helpers = std::min(threads_.size(), n - 1);
      for (std::size_t w = 0; w < helpers; ++w) tasks_.emplace_back(drain);
    }
    cv_.notify_all();
    drain();
    std::unique_lock lock(shared->done_mutex);
    shared->done_cv.wait(lock, [&] {
      return shared->done.load(std::memory_order_acquire) >= n;
    });
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
        if (stopping_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
    }
  }

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

constexpr std::size_t kLoopIters = 1u << 20;  // 1M trivial iterations
constexpr std::size_t kLoopWorkers = 4;

void BM_ParallelForPerIndexLegacy(benchmark::State& state) {
  LegacyPerIndexPool pool(kLoopWorkers);
  std::vector<double> out(kLoopIters);
  for (auto _ : state) {
    pool.parallel_for(kLoopIters, [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.0000001;
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kLoopIters));
}
BENCHMARK(BM_ParallelForPerIndexLegacy)->Unit(benchmark::kMillisecond);

void BM_ParallelForChunked(benchmark::State& state) {
  ThreadPool pool(kLoopWorkers);
  std::vector<double> out(kLoopIters);
  for (auto _ : state) {
    pool.parallel_for(kLoopIters, [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.0000001;
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kLoopIters));
}
BENCHMARK(BM_ParallelForChunked)->Unit(benchmark::kMillisecond);

void BM_ParallelReduceMoments(benchmark::State& state) {
  const auto xs = make_sample(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::compute_moments_parallel(xs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParallelReduceMoments)->Arg(1 << 17)->Arg(1 << 20);

// 16 samples of size n. The scorer benchmarks below cycle through them:
// sorting or merging one input over and over lets the branch predictor
// learn its comparison outcomes, which a fold never gets to do.
std::vector<std::vector<double>> make_samples(std::size_t n,
                                              std::uint64_t seed) {
  std::vector<std::vector<double>> out;
  for (std::uint64_t i = 0; i < 16; ++i) out.push_back(make_sample(n, seed + i));
  return out;
}

void BM_Moments(benchmark::State& state) {
  const auto xs = make_samples(static_cast<std::size_t>(state.range(0)), 1);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::compute_moments(xs[i]));
    i = (i + 1) % xs.size();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Moments)->Arg(1000)->Arg(10000);

// The whole unsorted scorer: two copies, two sorts and the kernel.
void BM_KsStatistic(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto as = make_samples(n, 1);
  const auto bs = make_samples(n, 17);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::ks_statistic(as[i], bs[i]));
    i = (i + 1) % as.size();
  }
}
BENCHMARK(BM_KsStatistic)->Arg(1000)->Arg(2000);

// The KS kernel alone, on samples sorted before the timed loop.
void BM_KsStatisticSorted(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto as = make_samples(n, 100);
  auto bs = make_samples(n, 200);
  for (auto& a : as) stats::sort_samples(a);
  for (auto& b : bs) stats::sort_samples(b);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::ks_statistic_sorted(as[i], bs[i]));
    i = (i + 1) % as.size();
  }
}
BENCHMARK(BM_KsStatisticSorted)->Arg(1000)->Arg(2000);

// One sort of a relative-time sample, refilled from an unsorted copy
// (the copy is part of the timed loop).
void BM_SortSamples(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto xs = make_samples(n, 100);
  std::vector<double> work(n);
  std::size_t i = 0;
  for (auto _ : state) {
    std::copy(xs[i].begin(), xs[i].end(), work.begin());
    stats::sort_samples(work);
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
    i = (i + 1) % xs.size();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortSamples)->Arg(1000)->Arg(2000);

void BM_KdeGrid(benchmark::State& state) {
  const auto xs = make_sample(1000, 3);
  const stats::Kde kde(xs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kde.evaluate_grid(0.9, 1.1, 128));
  }
}
BENCHMARK(BM_KdeGrid);

void BM_PearsonSample(benchmark::State& state) {
  stats::Moments target;
  target.mean = 1.0;
  target.stddev = 0.02;
  target.skewness = 0.8;
  target.kurtosis = 4.5;  // type IV region
  const pearson::PearsonSampler sampler(target);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_PearsonSample);

// Bulk draws from a type IV sampler: 2,000 is the evaluator's sample count,
// 100 a served request's.
void BM_PearsonSampleMany(benchmark::State& state) {
  stats::Moments target;
  target.mean = 1.0;
  target.stddev = 0.02;
  target.skewness = 0.8;
  target.kurtosis = 4.5;  // type IV region
  const pearson::PearsonSampler sampler(target);
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample_many(rng, n));
  }
}
BENCHMARK(BM_PearsonSampleMany)->Arg(100)->Arg(2000);

void BM_PearsonConstruct(benchmark::State& state) {
  stats::Moments target;
  target.mean = 1.0;
  target.stddev = 0.02;
  target.skewness = 0.8;
  target.kurtosis = 4.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pearson::PearsonSampler(target));
  }
}
BENCHMARK(BM_PearsonConstruct);

void BM_MaxEntSolve(benchmark::State& state) {
  stats::Moments target;
  target.mean = 1.0;
  target.stddev = 0.03;
  target.skewness = 0.5;
  target.kurtosis = 3.5;
  const auto raw = maxent::raw_moments_from_summary(target);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        maxent::MaxEntDensity(raw, 1.0 - 0.2, 1.0 + 0.2));
  }
}
BENCHMARK(BM_MaxEntSolve);

// Bulk draws from a solved MaxEnt density, at the same counts as
// BM_PearsonSampleMany.
void BM_MaxEntSampleMany(benchmark::State& state) {
  stats::Moments target;
  target.mean = 1.0;
  target.stddev = 0.03;
  target.skewness = 0.5;
  target.kurtosis = 3.5;
  const maxent::MaxEntDensity density(
      maxent::raw_moments_from_summary(target), 1.0 - 0.2, 1.0 + 0.2);
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(density.sample_many(rng, n));
  }
}
BENCHMARK(BM_MaxEntSampleMany)->Arg(100)->Arg(2000);

void BM_SimulateRun(benchmark::State& state) {
  const auto& system = measure::SystemModel::intel();
  const auto& bench = measure::benchmark_table()[0];
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure::simulate_run(bench, system, rng));
  }
}
BENCHMARK(BM_SimulateRun);

// Arg 10: a 10-run probe profile out of 100 runs. Arg 1000: a full profile
// over every one of 1,000 runs, what a use-case-2 cache builds per benchmark.
void BM_BuildProfile(benchmark::State& state) {
  const auto& system = measure::SystemModel::intel();
  const auto n_runs = static_cast<std::size_t>(state.range(0));
  const bool full = n_runs == 1000;
  const auto runs = measure::measure_benchmark(0, system, full ? 1000 : 100, 7);
  std::vector<std::size_t> idx(n_runs);
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = full ? i : i * 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_profile(system, runs, idx));
  }
}
BENCHMARK(BM_BuildProfile)->Arg(10)->Arg(1000);

ml::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  ml::Matrix m(rows, cols);
  Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

void BM_KnnFitPredict(benchmark::State& state) {
  const auto x = random_matrix(118, 272, 1);
  const auto y = random_matrix(118, 4, 2);
  const auto q = random_matrix(1, 272, 3);
  for (auto _ : state) {
    ml::KnnRegressor knn;
    knn.fit(x, y);
    benchmark::DoNotOptimize(knn.predict(q.row(0)));
  }
}
BENCHMARK(BM_KnnFitPredict);

void BM_ForestFit(benchmark::State& state) {
  const auto x = random_matrix(118, 272, 1);
  const auto y = random_matrix(118, 4, 2);
  ml::ForestParams params;
  params.n_trees = 20;
  for (auto _ : state) {
    ml::RandomForest forest(params);
    forest.fit(x, y);
    benchmark::DoNotOptimize(forest.tree_count());
  }
}
BENCHMARK(BM_ForestFit);

void BM_GbtFit(benchmark::State& state) {
  const auto x = random_matrix(118, 272, 1);
  const auto y = random_matrix(118, 4, 2);
  ml::GbtParams params;
  params.n_rounds = 10;
  for (auto _ : state) {
    ml::GradientBoosting gbt(params);
    gbt.fit(x, y);
    benchmark::DoNotOptimize(gbt.trained());
  }
}
BENCHMARK(BM_GbtFit);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): peel off the harness-owned flags
// (--fast/--runs/--obs/--obs-out) before google-benchmark sees argv — it
// aborts on flags it does not recognize — then run under a bench::Run so
// this binary emits BENCH_micro_components.json like every other harness.
int main(int argc, char** argv) {
  varpred::bench::HarnessArgs args;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (!args.consume(argv[i])) passthrough.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }
  const int rc = varpred::bench::run_repeated(
      "micro_components", args, [](varpred::bench::Run& run) {
        run.stage("benchmarks");
        // google-benchmark 1.7 segfaults when RunSpecifiedBenchmarks() is
        // called a second time through its internal default reporter; a
        // fresh reporter per repetition keeps --repeat=N working.
        benchmark::ConsoleReporter reporter;
        benchmark::RunSpecifiedBenchmarks(&reporter);
      });
  benchmark::Shutdown();
  return rc;
}
