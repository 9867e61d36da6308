// Tests for CSV measurement import/export: exact round trips, column-order
// independence, and schema validation.
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <string>

#include <unistd.h>

#include "core/profile.hpp"
#include "measure/measurement_io.hpp"

namespace varpred::measure {
namespace {

TEST(MeasurementIo, RoundTripExact) {
  const auto& system = SystemModel::intel();
  const auto runs = measure_benchmark(3, system, 25, 7);
  const auto csv = runs_to_csv(system, runs);
  EXPECT_EQ(csv.header.size(), system.metric_count() + 2);
  EXPECT_EQ(csv.rows.size(), 25u);

  const auto back = runs_from_csv(system, csv);
  EXPECT_EQ(back.benchmark, std::numeric_limits<std::size_t>::max());
  ASSERT_EQ(back.run_count(), runs.run_count());
  for (std::size_t r = 0; r < runs.run_count(); ++r) {
    EXPECT_DOUBLE_EQ(back.runtimes[r], runs.runtimes[r]);
    for (std::size_t m = 0; m < system.metric_count(); ++m) {
      EXPECT_DOUBLE_EQ(back.counters(r, m), runs.counters(r, m));
    }
  }
}

TEST(MeasurementIo, ColumnOrderIndependent) {
  const auto& system = SystemModel::intel();
  const auto runs = measure_benchmark(1, system, 5, 9);
  auto csv = runs_to_csv(system, runs);
  // Swap two metric columns (header + data together): import must reorder.
  const std::size_t a = 2;
  const std::size_t b = 10;
  std::swap(csv.header[a], csv.header[b]);
  for (auto& row : csv.rows) std::swap(row[a], row[b]);
  const auto back = runs_from_csv(system, csv);
  for (std::size_t m = 0; m < system.metric_count(); ++m) {
    EXPECT_DOUBLE_EQ(back.counters(0, m), runs.counters(0, m));
  }
}

TEST(MeasurementIo, RejectsSchemaDrift) {
  const auto& system = SystemModel::intel();
  const auto runs = measure_benchmark(0, system, 3, 5);
  auto csv = runs_to_csv(system, runs);

  auto missing = csv;
  missing.header[5] = "not-a-metric";
  EXPECT_THROW(runs_from_csv(system, missing), std::invalid_argument);

  auto extra = csv;
  extra.header.push_back("surplus");
  for (auto& row : extra.rows) row.push_back("1");
  EXPECT_THROW(runs_from_csv(system, extra), std::invalid_argument);

  auto bad_runtime = csv;
  bad_runtime.rows[0][1] = "-3.0";
  EXPECT_THROW(runs_from_csv(system, bad_runtime), std::invalid_argument);

  // Wrong system entirely (different metric set).
  EXPECT_THROW(runs_from_csv(SystemModel::amd(), csv),
               std::invalid_argument);
}

TEST(MeasurementIo, RejectsNonNumericCells) {
  // A cell that is not a number is an import error naming its row and
  // column, never a silent 0.0.
  const auto& system = SystemModel::intel();
  const auto csv = runs_to_csv(system, measure_benchmark(3, system, 3, 7));
  for (const char* cell : {"garbage", "", "1.5x", " 2"}) {
    for (const std::size_t col : {std::size_t{1}, std::size_t{4}}) {
      auto bad = csv;
      bad.rows[2][col] = cell;
      try {
        runs_from_csv(system, bad);
        ADD_FAILURE() << "cell '" << cell << "' in column " << col
                      << " imported";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("row 2"), std::string::npos) << what;
        EXPECT_NE(what.find(csv.header[col]), std::string::npos) << what;
      }
    }
  }
}

TEST(MeasurementIo, ImportedRunsDriveThePredictor) {
  // External data flows through profile construction unchanged.
  const auto& system = SystemModel::intel();
  const auto runs = measure_benchmark(7, system, 12, 11);
  const auto imported = runs_from_csv(system, runs_to_csv(system, runs));
  std::vector<std::size_t> idx = {0, 1, 2, 3, 4};
  const auto a = core::build_profile(system, runs, idx);
  const auto b = core::build_profile(system, imported, idx);
  EXPECT_EQ(a, b);
}

TEST(MeasurementIo, SaveLoadMatchesTheInMemoryRoundTrip) {
  const auto& system = SystemModel::amd();
  const auto runs = measure_benchmark(11, system, 8, 3);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("varpred_runs_" + std::to_string(::getpid()) + ".csv"))
          .string();
  save_runs(system, runs, path);
  const auto loaded = load_runs(system, path);
  std::filesystem::remove(path);
  const auto in_memory = runs_from_csv(system, runs_to_csv(system, runs));
  EXPECT_EQ(loaded.benchmark, in_memory.benchmark);
  EXPECT_EQ(loaded.runtimes, in_memory.runtimes);
  ASSERT_EQ(loaded.counters.rows(), in_memory.counters.rows());
  for (std::size_t r = 0; r < loaded.run_count(); ++r) {
    for (std::size_t m = 0; m < system.metric_count(); ++m) {
      EXPECT_EQ(loaded.counters(r, m), in_memory.counters(r, m));
    }
  }
  EXPECT_THROW(load_runs(system, path), std::invalid_argument);
}

}  // namespace
}  // namespace varpred::measure
