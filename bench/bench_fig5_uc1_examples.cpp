// Figure 5: overlay of predicted and actual distributions for selected
// benchmarks across the KS spectrum -- use case 1, PearsonRnd + kNN,
// 10 probe runs, Intel system.
//
// The paper's selection covers very narrow (359, 304, bt, heartwall),
// moderate (dtclassifier, ludomp), wide (303, 376, mrigridding), and
// long-tailed (streamcluster) distributions.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace varpred;
  const auto args = bench::HarnessArgs::parse(argc, argv);
  return bench::run_repeated("fig5_uc1_examples", args, [&](bench::Run& run) {
    run.stage("corpus");
    const auto corpus = bench::intel_corpus(args);
    run.stage("predict");
    const core::FewRunsConfig config;  // PearsonRnd + kNN, 10 runs
    core::EvalOptions options;
    options.seed = run.repetition_seed(options.seed);

    const char* selected[] = {
        "specaccel/359",     "specaccel/304",  "npb/bt",
        "rodinia/heartwall", "mllib/dtclassifier", "rodinia/ludomp",
        "specaccel/303",     "specomp/376",    "parboil/mrigridding",
        "parsec/streamcluster",
    };

    std::printf("=== Fig. 5: predicted vs actual overlays, use case 1 "
                "(PearsonRnd + kNN, 10 runs, Intel) ===\n\n");
    for (const char* name : selected) {
      const std::size_t idx = measure::benchmark_index(name);
      const auto measured = corpus.benchmarks[idx].relative_times();
      const auto predicted =
          core::predict_held_out_few_runs(corpus, idx, config, options);
      obs::record_prediction_scores(
          {name, corpus.system->name(), core::to_string(config.repr),
           core::to_string(config.model), "", ""},
          measured, predicted);
      const double ks = stats::ks_statistic(measured, predicted);
      const auto mm = stats::compute_moments(measured);
      const auto pm = stats::compute_moments(predicted);
      double lo;
      double hi;
      io::plot_range(measured, predicted, lo, hi);
      std::printf("%-22s KS=%.3f   measured sd=%.4f skew=%+.2f | predicted "
                  "sd=%.4f skew=%+.2f\n",
                  name, ks, mm.stddev, mm.skewness, pm.stddev, pm.skewness);
      std::printf("%s\n", io::density_overlay(measured, predicted, lo, hi, 72,
                                              8).c_str());
    }
    std::printf("Paper: overall width is predicted correctly for narrow, "
                "moderate, and wide distributions, and multi-modal\nstructure "
                "(relative mode positions/sizes) is recovered with reasonable "
                "success.\n");
  });
}
