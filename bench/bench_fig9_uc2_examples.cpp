// Figure 9: overlay of predicted and actual distributions for selected
// benchmarks across the KS spectrum -- use case 2, PearsonRnd + kNN,
// predicting from the AMD system to the Intel system.
//
// The paper's selection covers very narrow (is, heartwall, spmv), moderate
// (bfs, gbtclassifier, sgemm), and wide (bodytrack, canneal, correlation,
// histo) distributions.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace varpred;
  const auto args = bench::HarnessArgs::parse(argc, argv);
  return bench::run_repeated("fig9_uc2_examples", args, [&](bench::Run& run) {
    run.stage("corpus");
    const auto intel = bench::intel_corpus(args);
    const auto amd = bench::amd_corpus(args);
    run.stage("predict");
    const core::CrossSystemConfig config;  // PearsonRnd + kNN
    core::EvalOptions options;
    options.seed = run.repetition_seed(options.seed);
    const std::string systems =
        amd.system->name() + "->" + intel.system->name();

    const char* selected[] = {
        "npb/is",          "rodinia/heartwall", "parboil/spmv",
        "parboil/bfs",     "mllib/gbtclassifier", "parboil/sgemm",
        "parsec/bodytrack", "parsec/canneal",   "mllib/correlation",
        "parboil/histo",
    };

    std::printf("=== Fig. 9: predicted vs actual overlays, use case 2 "
                "(PearsonRnd + kNN, AMD -> Intel) ===\n\n");
    for (const char* name : selected) {
      const std::size_t idx = measure::benchmark_index(name);
      const auto measured = intel.benchmarks[idx].relative_times();
      const auto predicted = core::predict_held_out_cross_system(
          amd, intel, idx, config, options);
      obs::record_prediction_scores(
          {name, systems, core::to_string(config.repr),
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
    std::printf("Paper: distribution width transfers fairly well across "
                "systems; multi-modal structure is predicted with\nmixed "
                "success in mode positions and sizes.\n");
  });
}
