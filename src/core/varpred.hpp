// Umbrella header: the full public API of the varpred library.
//
//   #include "core/varpred.hpp"
//
// Quick tour:
//   measure::build_corpus()        -- simulate a measurement campaign
//   core::FewRunsPredictor         -- use case 1: few runs -> distribution
//   core::CrossSystemPredictor     -- use case 2: system A -> system B
//   core::evaluate_few_runs()      -- leave-one-benchmark-out KS evaluation
//   core::evaluate_cross_system()
//   core::ConfigAwarePredictor     -- (config, profile) -> distribution
//   tune::tune_config()            -- variability-aware config search
//   stats::ks_statistic(), Kde     -- scoring and visualization helpers
#pragma once

#include "core/configpred.hpp"
#include "core/crosssystem.hpp"
#include "core/distrepr.hpp"
#include "core/evaluator.hpp"
#include "core/models.hpp"
#include "core/predictor.hpp"
#include "core/profile.hpp"
#include "io/ascii_plot.hpp"
#include "io/csv.hpp"
#include "io/serialize.hpp"
#include "io/svg_plot.hpp"
#include "io/table.hpp"
#include "measure/benchmarks.hpp"
#include "measure/corpus.hpp"
#include "measure/metrics_catalog.hpp"
#include "measure/sysconfig.hpp"
#include "measure/system_model.hpp"
#include "pearson/pearson.hpp"
#include "stats/ecdf.hpp"
#include "stats/histogram.hpp"
#include "stats/kde.hpp"
#include "stats/ks.hpp"
#include "stats/moments.hpp"
#include "stats/summary.hpp"
#include "stats/wasserstein.hpp"
#include "tune/tuner.hpp"
