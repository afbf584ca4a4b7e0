// Minimal CSV emission (RFC-4180 quoting) for experiment outputs.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace ct::util {

/// Streams rows to an ostream, quoting fields that contain commas, quotes,
/// or newlines. The writer owns no buffer; it is a thin formatting layer.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  /// Writes a header row; callable once, before any data row.
  void header(const std::vector<std::string>& columns);

  /// Begins accumulating a row; fields are added with `field()` and the row
  /// is terminated with `end_row()`.
  CsvWriter& field(std::string_view value);
  CsvWriter& field(double value, int precision = 6);
  CsvWriter& field(std::int64_t value);
  CsvWriter& field(std::size_t value);
  void end_row();

  std::size_t rows_written() const noexcept { return rows_; }

 private:
  void raw_field(std::string_view value);

  std::ostream& out_;
  bool row_open_ = false;
  bool header_written_ = false;
  std::size_t rows_ = 0;
};

/// Quotes a single CSV field per RFC 4180 if needed.
std::string csv_escape(std::string_view field);

/// Parses one CSV record per RFC 4180: fields separated by commas, quoted
/// fields may contain commas and doubled quotes. The record must not span
/// lines (embedded newlines in quoted fields are not supported by this
/// line-oriented parser). Throws std::invalid_argument on an unterminated
/// quote.
std::vector<std::string> parse_csv_line(std::string_view line);

}  // namespace ct::util
