// Extension E3: scoring predicted distributions with the 1-Wasserstein
// distance alongside the paper's KS statistic. KS measures the worst CDF
// gap; W1 weights misplaced mass by how far it was moved, which maps more
// directly onto "how wrong would my latency estimate be". If the two
// scores rank configurations the same way, the paper's conclusions are
// robust to the choice of divergence.
#include "bench_common.hpp"

#include "stats/wasserstein.hpp"

int main(int argc, char** argv) {
  using namespace varpred;
  const auto args = bench::HarnessArgs::parse(argc, argv);
  return bench::run_repeated("ext_scores", args, [&](bench::Run& run) {
    run.stage("corpus");
    const auto corpus = bench::intel_corpus(args);
    run.stage("evaluate");
    core::EvalOptions options;
    options.seed = run.repetition_seed(options.seed);

    std::printf("=== Extension E3: KS vs 1-Wasserstein scoring (use case 1, "
                "Intel, kNN) ===\n\n");
    io::TextTable table({"representation", "meanKS", "meanW1(x1000)",
                         "rank_agreement"});

    std::vector<std::pair<double, double>> means;
    for (const auto repr : core::all_repr_kinds()) {
      core::FewRunsConfig config;
      config.repr = repr;
      double total_w1 = 0.0;
      std::vector<double> ks_scores;
      for (std::size_t b = 0; b < corpus.benchmarks.size(); ++b) {
        const auto predicted =
            core::predict_held_out_few_runs(corpus, b, config, options);
        const auto measured = corpus.benchmarks[b].relative_times();
        const stats::PairScores scores = obs::record_prediction_scores(
            {measure::benchmark_table()[corpus.benchmarks[b].benchmark]
                 .full_name(),
             corpus.system->name(), core::to_string(repr),
             core::to_string(config.model), "", ""},
            measured, predicted);
        ks_scores.push_back(scores.ks);
        total_w1 += stats::wasserstein1(measured, predicted);
      }
      const double mean_ks = stats::mean(ks_scores);
      const double mean_w1 =
          total_w1 / static_cast<double>(corpus.benchmarks.size());
      means.emplace_back(mean_ks, mean_w1);
      table.add_row({core::to_string(repr), format_fixed(mean_ks, 3),
                     format_fixed(1000.0 * mean_w1, 2), ""});
      std::fflush(stdout);
    }
    std::printf("%s\n", table.render(2).c_str());

    // Do the two scores agree on the representation ranking?
    auto rank_of = [&](bool use_w1) {
      std::vector<std::size_t> order(means.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return (use_w1 ? means[a].second : means[a].first) <
               (use_w1 ? means[b].second : means[b].first);
      });
      return order;
    };
    const bool agree = rank_of(false) == rank_of(true);
    std::printf("representation ranking identical under KS and W1: %s\n",
                agree ? "yes" : "no");
  });
}
