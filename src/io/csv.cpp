#include "io/csv.hpp"

#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace varpred::io {
namespace {

bool needs_quoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

std::string quote(const std::string& field) {
  if (!needs_quoting(field)) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void write_row(std::string& out, const std::vector<std::string>& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i != 0) out += ',';
    out += quote(row[i]);
  }
  out += '\n';
}

}  // namespace

std::size_t CsvTable::column(const std::string& name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  VARPRED_CHECK_ARG(false, "no such CSV column: " + name);
}

double CsvTable::as_double(std::size_t row, std::size_t col) const {
  VARPRED_CHECK_ARG(row < rows.size() && col < rows[row].size(),
                    "CSV index out of range");
  const auto value = parse_double_strict(rows[row][col]);
  VARPRED_CHECK_ARG(value.has_value(),
                    "CSV cell is not a number: row " + std::to_string(row) +
                        ", column " +
                        (col < header.size() ? header[col]
                                             : std::to_string(col)));
  return *value;
}

std::string write_csv(const CsvTable& table) {
  std::string out;
  write_row(out, table.header);
  for (const auto& row : table.rows) write_row(out, row);
  return out;
}

CsvTable read_csv(const std::string& text) {
  std::vector<std::vector<std::string>> parsed;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool row_has_content = false;

  auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
  };
  auto end_row = [&] {
    if (row_has_content || !row.empty()) {
      end_field();
      parsed.push_back(std::move(row));
      row.clear();
    }
    row_has_content = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_has_content = true;
        break;
      case ',':
        end_field();
        row_has_content = true;
        break;
      case '\r':
        break;
      case '\n':
        end_row();
        break;
      default:
        field += c;
        row_has_content = true;
    }
  }
  if (row_has_content || !field.empty() || !row.empty()) end_row();

  CsvTable table;
  VARPRED_CHECK_ARG(!parsed.empty(), "empty CSV input");
  table.header = std::move(parsed.front());
  table.rows.assign(parsed.begin() + 1, parsed.end());
  return table;
}

void save_csv(const CsvTable& table, const std::string& path) {
  std::ofstream out(path);
  VARPRED_CHECK_ARG(out.good(), "cannot open for writing: " + path);
  out << write_csv(table);
  VARPRED_CHECK(out.good(), "write failed: " + path);
}

CsvTable load_csv(const std::string& path) {
  std::ifstream in(path);
  VARPRED_CHECK_ARG(in.good(), "cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return read_csv(buffer.str());
}

}  // namespace varpred::io
