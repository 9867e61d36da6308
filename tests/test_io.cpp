// Tests for the io module: CSV round-trips (including quoting), text
// tables, and ASCII density plots.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/rng.hpp"
#include "io/ascii_plot.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "rngdist/samplers.hpp"

namespace varpred::io {
namespace {

TEST(Csv, RoundTripSimple) {
  CsvTable table;
  table.header = {"name", "value"};
  table.rows = {{"a", "1.5"}, {"b", "-2"}};
  const auto text = write_csv(table);
  const auto back = read_csv(text);
  EXPECT_EQ(back.header, table.header);
  EXPECT_EQ(back.rows, table.rows);
  EXPECT_DOUBLE_EQ(back.as_double(0, 1), 1.5);
  EXPECT_EQ(back.column("value"), 1u);
  EXPECT_THROW(back.column("nope"), std::invalid_argument);
}

TEST(Csv, AsDoubleIsStrict) {
  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{"1e-3", "garbage"}, {"", "-0"}};
  EXPECT_EQ(table.as_double(0, 0), 1e-3);
  EXPECT_EQ(table.as_double(1, 1), 0.0);
  EXPECT_THROW(table.as_double(0, 1), std::invalid_argument);
  EXPECT_THROW(table.as_double(1, 0), std::invalid_argument);
  EXPECT_THROW(table.as_double(2, 0), std::invalid_argument);
}

TEST(Csv, QuotingRoundTrip) {
  CsvTable table;
  table.header = {"k", "v"};
  table.rows = {{"comma,here", "quote\"inside"},
                {"new\nline", "plain"},
                {"", "empty-first"}};
  const auto back = read_csv(write_csv(table));
  EXPECT_EQ(back.rows, table.rows);
}

TEST(Csv, ParsesCrlfAndTrailingNewline) {
  const auto t = read_csv("a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[1][1], "4");
  EXPECT_THROW(read_csv(""), std::invalid_argument);
}

TEST(Csv, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "varpred_csv_test.csv")
          .string();
  CsvTable table;
  table.header = {"x"};
  table.rows = {{"42"}};
  save_csv(table, path);
  const auto back = load_csv(path);
  EXPECT_DOUBLE_EQ(back.as_double(0, 0), 42.0);
  std::remove(path.c_str());
  EXPECT_THROW(load_csv("/nonexistent/dir/file.csv"), std::invalid_argument);
}

TEST(TextTable, AlignsColumns) {
  TextTable table({"a", "long-header"});
  table.add_row({"xxxxx", "1"});
  table.add_row({"y", "22"});
  const auto out = table.render();
  // Every line has the same layout; header underline present.
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("xxxxx"), std::string::npos);
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(AsciiPlot, PlotRangeCoversBothSamples) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {0.5, 3.0};
  double lo;
  double hi;
  plot_range(a, b, lo, hi);
  EXPECT_LT(lo, 0.5);
  EXPECT_GT(hi, 3.0);
}

TEST(AsciiPlot, DensityPlotHasExpectedGeometry) {
  Rng rng(1);
  std::vector<double> xs(500);
  for (auto& x : xs) x = rngdist::normal(rng, 1.0, 0.1);
  const auto plot = density_plot(xs, 0.5, 1.5, 40, 6);
  // 6 canvas rows + axis + label.
  int lines = 0;
  for (const char c : plot) lines += (c == '\n');
  EXPECT_EQ(lines, 8);
  EXPECT_NE(plot.find('#'), std::string::npos);
}

TEST(AsciiPlot, OverlayMarksBothCurves) {
  Rng rng(2);
  std::vector<double> a(500);
  std::vector<double> b(500);
  for (auto& x : a) x = rngdist::normal(rng, 0.9, 0.02);
  for (auto& x : b) x = rngdist::normal(rng, 1.1, 0.02);
  const auto plot = density_overlay(a, b, 0.8, 1.2, 60, 8);
  EXPECT_NE(plot.find('#'), std::string::npos);  // measured
  EXPECT_NE(plot.find('o'), std::string::npos);  // predicted
  EXPECT_NE(plot.find("measured"), std::string::npos);
  EXPECT_THROW(density_overlay(a, b, 1.0, 1.0, 60, 8),
               std::invalid_argument);
}

}  // namespace
}  // namespace varpred::io
