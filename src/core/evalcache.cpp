#include "core/evalcache.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"

namespace varpred::core {
namespace {

void check_benchmarks(std::span<const std::size_t> benchmarks,
                      std::size_t n) {
  for (const std::size_t b : benchmarks) {
    VARPRED_CHECK_ARG(b < n, "benchmark index out of range");
  }
}

void check_strictly_ascending(std::span<const std::size_t> benchmarks) {
  VARPRED_CHECK_ARG(std::adjacent_find(benchmarks.begin(), benchmarks.end(),
                                       std::greater_equal<>()) ==
                        benchmarks.end(),
                    "training benchmarks must be strictly ascending");
}

// The presorted artifact, built only when the configured learner reads it:
// the tree learners do, and a model_factory's learner is unknown.
template <typename Config>
std::shared_ptr<const ml::SortedColumns> presort_for(
    const ml::Matrix& features, const Config& config) {
  const bool reads_presort = config.model_factory ||
                             config.model == ModelKind::kRandomForest ||
                             config.model == ModelKind::kXgBoost;
  if (!reads_presort || features.rows() < 2) return nullptr;
  return std::make_shared<const ml::SortedColumns>(
      ml::SortedColumns::build(features));
}

// Stacks per-benchmark row slots into one matrix, in slot order.
ml::Matrix stack(const std::vector<std::vector<double>>& rows) {
  ml::Matrix out;
  for (const auto& row : rows) out.push_row(row);
  return out;
}

}  // namespace

TrainingRows few_runs_rows(const measure::Corpus& corpus,
                           std::span<const std::size_t> benchmarks,
                           const FewRunsConfig& config,
                           const DistributionRepr& repr) {
  check_benchmarks(benchmarks, corpus.benchmarks.size());
  const std::size_t replicates = config.train_replicates;
  const std::uint64_t system_hash = stable_hash(corpus.system->name());
  TrainingRows out;
  out.targets.resize(benchmarks.size());
  std::vector<std::vector<double>> rows(benchmarks.size() * replicates);
  parallel_for(benchmarks.size(), [&](std::size_t i) {
    const std::size_t b = benchmarks[i];
    const auto& runs = corpus.benchmarks[b];
    out.targets[i] = repr.encode(runs.relative_times());
    // Seeded by the benchmark alone, never by the subset or the slot.
    Rng rng(seed_combine(config.seed, system_hash ^ (b * 0x9E37ULL + 17)));
    const std::size_t probes =
        std::min(config.n_probe_runs, runs.run_count());
    for (std::size_t rep = 0; rep < replicates; ++rep) {
      const auto idx = choose_run_indices(runs.run_count(), probes, rng);
      rows[i * replicates + rep] =
          build_profile(*corpus.system, runs, idx, config.profile);
    }
  });
  out.features = stack(rows);
  return out;
}

TrainingRows cross_system_rows(const measure::Corpus& source,
                               const measure::Corpus& target,
                               std::span<const std::size_t> benchmarks,
                               const CrossSystemConfig& config,
                               const DistributionRepr& repr) {
  VARPRED_CHECK_ARG(source.benchmarks.size() == target.benchmarks.size(),
                    "corpora must cover the same benchmark set");
  check_benchmarks(benchmarks, source.benchmarks.size());
  TrainingRows out;
  out.targets.resize(benchmarks.size());
  std::vector<std::vector<double>> rows(benchmarks.size());
  parallel_for(benchmarks.size(), [&](std::size_t i) {
    const std::size_t b = benchmarks[i];
    rows[i] = cross_system_features(*source.system, source.benchmarks[b],
                                    config.profile, repr);
    out.targets[i] = repr.encode(target.benchmarks[b].relative_times());
  });
  out.features = stack(rows);
  return out;
}

void check_cache_shape(const ml::Matrix& features,
                       const std::vector<std::vector<double>>& targets,
                       std::size_t feature_width, std::size_t target_width) {
  VARPRED_CHECK_ARG(features.cols() == feature_width,
                    "evaluation cache features have another width (built "
                    "for another representation or profile)");
  for (const auto& target : targets) {
    VARPRED_CHECK_ARG(target.size() == target_width,
                      "evaluation cache targets have another width (built "
                      "for another representation)");
  }
}

std::vector<std::size_t> FewRunsEvalCache::rows_for(
    std::span<const std::size_t> benchmarks) const {
  check_benchmarks(benchmarks, targets.size());
  check_strictly_ascending(benchmarks);
  std::vector<std::size_t> rows;
  rows.reserve(benchmarks.size() * replicates);
  for (const std::size_t b : benchmarks) {
    for (std::size_t rep = 0; rep < replicates; ++rep) {
      rows.push_back(b * replicates + rep);
    }
  }
  return rows;
}

FewRunsEvalCache FewRunsEvalCache::build(const measure::Corpus& corpus,
                                         const FewRunsConfig& config) {
  obs::Span span("eval.cache.build");
  VARPRED_OBS_COUNT("eval.cache.builds", 1);
  std::vector<std::size_t> all(corpus.benchmarks.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  auto rows = few_runs_rows(corpus, all, config,
                            *DistributionRepr::create(config.repr));
  FewRunsEvalCache cache;
  cache.features = std::move(rows.features);
  cache.targets = std::move(rows.targets);
  cache.replicates = config.train_replicates;
  cache.presorted = presort_for(cache.features, config);
  return cache;
}

std::vector<std::size_t> CrossSystemEvalCache::rows_for(
    std::span<const std::size_t> benchmarks) const {
  check_benchmarks(benchmarks, targets.size());
  check_strictly_ascending(benchmarks);
  return {benchmarks.begin(), benchmarks.end()};
}

CrossSystemEvalCache CrossSystemEvalCache::build(
    const measure::Corpus& source, const measure::Corpus& target,
    const CrossSystemConfig& config) {
  obs::Span span("eval.cache.build");
  VARPRED_OBS_COUNT("eval.cache.builds", 1);
  std::vector<std::size_t> all(source.benchmarks.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  auto rows = cross_system_rows(source, target, all, config,
                                *DistributionRepr::create(config.repr));
  CrossSystemEvalCache cache;
  cache.features = std::move(rows.features);
  cache.targets = std::move(rows.targets);
  cache.presorted = presort_for(cache.features, config);
  return cache;
}

}  // namespace varpred::core
