// Extension E4: which profile metrics actually drive the prediction?
// Permutation importance of every profile feature for the moment-vector
// regression (use case 1 targets), aggregated per metric and per semantic
// category. The paper selects 68-75 metrics by hand; this analysis shows
// which of them the model relies on -- and that importance concentrates in
// the categories the simulator couples to runtime variability.
#include <map>

#include "bench_common.hpp"

#include "ml/importance.hpp"
#include "ml/ridge.hpp"

int main(int argc, char** argv) {
  using namespace varpred;
  auto args = bench::HarnessArgs::parse(argc, argv);
  if (!args.fast) args.runs = std::min<std::size_t>(args.runs, 500);
  return bench::run_repeated("ext_importance", args, [&](bench::Run& run) {
    run.stage("corpus");
    const auto corpus = bench::intel_corpus(args);
    const auto& system = *corpus.system;

    run.stage("fit");
    // Training matrix: full-corpus profiles -> moment targets.
    core::PearsonRepr repr;
    ml::Matrix x;
    ml::Matrix y;
    for (const auto& runs : corpus.benchmarks) {
      x.push_row(core::build_full_profile(system, runs));
      y.push_row(repr.encode(runs.relative_times()));
    }

    ml::RidgeRegressor model;  // linear weights give clean attributions
    model.fit(x, y);
    Rng rng(2024);
    const auto importance = ml::permutation_importance(model, x, y, 3, rng);

    // Aggregate the 4 per-metric features into one score per metric.
    const auto names = core::profile_feature_names(system);
    std::vector<double> per_metric(system.metric_count(), 0.0);
    for (std::size_t f = 0; f < importance.size(); ++f) {
      per_metric[f / 4] += std::max(importance[f], 0.0);
    }

    std::printf("=== Extension E4: permutation importance of profile metrics "
                "(use case 1 targets, Intel) ===\n\n");
    const auto top = ml::top_features(per_metric, 15);
    io::TextTable table({"rank", "metric", "category", "importance"});
    for (std::size_t i = 0; i < top.size(); ++i) {
      const auto& metric = system.metrics()[top[i]];
      table.add_row({std::to_string(i + 1), metric.name,
                     measure::to_string(metric.category),
                     format_fixed(per_metric[top[i]], 5)});
    }
    std::printf("%s\n", table.render(2).c_str());

    // Category aggregation.
    std::map<std::string, double> by_category;
    for (std::size_t m = 0; m < per_metric.size(); ++m) {
      by_category[measure::to_string(system.metrics()[m].category)] +=
          per_metric[m];
    }
    io::TextTable cat_table({"category", "total_importance"});
    for (const auto& [category, value] : by_category) {
      cat_table.add_row({category, format_fixed(value, 5)});
    }
    std::printf("%s\n", cat_table.render(2).c_str());
  });
}
