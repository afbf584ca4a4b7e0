#include "util/csv.h"

#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace ct::util {

std::string csv_escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\r\n") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::vector<std::string> parse_csv_line(std::string_view line) {
  // Strip a trailing CR from CRLF input.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::vector<std::string> fields;
  std::string current;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');  // escaped quote
          ++i;
        } else {
          quoted = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"' && current.empty()) {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (quoted) {
    throw std::invalid_argument("parse_csv_line: unterminated quoted field");
  }
  fields.push_back(std::move(current));
  return fields;
}

void CsvWriter::header(const std::vector<std::string>& columns) {
  if (header_written_ || rows_ > 0 || row_open_) {
    throw std::logic_error("CsvWriter::header must be the first write");
  }
  header_written_ = true;
  bool first = true;
  for (const auto& c : columns) {
    if (!first) out_ << ',';
    out_ << csv_escape(c);
    first = false;
  }
  out_ << '\n';
}

void CsvWriter::raw_field(std::string_view value) {
  if (row_open_) out_ << ',';
  out_ << csv_escape(value);
  row_open_ = true;
}

CsvWriter& CsvWriter::field(std::string_view value) {
  raw_field(value);
  return *this;
}

CsvWriter& CsvWriter::field(double value, int precision) {
  std::ostringstream ss;
  ss << std::setprecision(precision) << value;
  raw_field(ss.str());
  return *this;
}

CsvWriter& CsvWriter::field(std::int64_t value) {
  raw_field(std::to_string(value));
  return *this;
}

CsvWriter& CsvWriter::field(std::size_t value) {
  raw_field(std::to_string(value));
  return *this;
}

void CsvWriter::end_row() {
  if (!row_open_) throw std::logic_error("CsvWriter::end_row on empty row");
  out_ << '\n';
  row_open_ = false;
  ++rows_;
}

}  // namespace ct::util
