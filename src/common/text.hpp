// Small string/number formatting helpers shared by the table printer,
// CSV writer, and experiment harnesses.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace varpred {

/// Joins parts with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view text, char delim);

/// Fixed-precision formatting ("%.*f").
std::string format_fixed(double value, int digits);

/// Pads/truncates `text` to exactly `width` columns, left-aligned.
std::string pad_right(std::string_view text, std::size_t width);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

}  // namespace varpred
