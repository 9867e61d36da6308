// Minimal CSV reader/writer for exporting corpora and experiment results.
// Fields are numeric or plain strings; values containing the delimiter,
// quotes, or newlines are quoted per RFC 4180.
#pragma once

#include <string>
#include <vector>

namespace varpred::io {

/// In-memory CSV table: a header row plus data rows of strings.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  std::size_t column(const std::string& name) const;  ///< throws if missing
  /// Parses one cell strictly (common/parse); throws std::invalid_argument
  /// naming the row and column on an empty or non-numeric cell.
  double as_double(std::size_t row, std::size_t col) const;
};

/// Serializes a table (header first) to CSV text.
std::string write_csv(const CsvTable& table);

/// Parses CSV text (first line is the header). Handles quoted fields.
CsvTable read_csv(const std::string& text);

/// Writes CSV text to a file; throws on I/O failure.
void save_csv(const CsvTable& table, const std::string& path);

/// Reads a CSV file; throws on I/O failure.
CsvTable load_csv(const std::string& path);

}  // namespace varpred::io
