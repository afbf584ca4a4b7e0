#include "util/json_writer.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace ct::util {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void JsonWriter::newline_indent() {
  if (!pretty_) return;
  out_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) out_ << "  ";
}

void JsonWriter::before_value() {
  if (stack_.empty()) {
    if (wrote_root_) throw std::logic_error("JsonWriter: multiple roots");
    return;
  }
  if (stack_.back() == Frame::kObject && !key_pending_) {
    throw std::logic_error("JsonWriter: value in object without key");
  }
  if (stack_.back() == Frame::kArray) {
    if (!first_in_frame_.back()) out_ << ',';
    first_in_frame_.back() = false;
    newline_indent();
  }
  key_pending_ = false;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ << '{';
  stack_.push_back(Frame::kObject);
  first_in_frame_.push_back(true);
  wrote_root_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != Frame::kObject || key_pending_) {
    throw std::logic_error("JsonWriter: mismatched end_object");
  }
  const bool was_empty = first_in_frame_.back();
  stack_.pop_back();
  first_in_frame_.pop_back();
  if (!was_empty) newline_indent();
  out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ << '[';
  stack_.push_back(Frame::kArray);
  first_in_frame_.push_back(true);
  wrote_root_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Frame::kArray) {
    throw std::logic_error("JsonWriter: mismatched end_array");
  }
  const bool was_empty = first_in_frame_.back();
  stack_.pop_back();
  first_in_frame_.pop_back();
  if (!was_empty) newline_indent();
  out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (stack_.empty() || stack_.back() != Frame::kObject || key_pending_) {
    throw std::logic_error("JsonWriter: key outside object");
  }
  if (!first_in_frame_.back()) out_ << ',';
  first_in_frame_.back() = false;
  newline_indent();
  out_ << '"' << json_escape(k) << '"' << (pretty_ ? ": " : ":");
  key_pending_ = true;
  return *this;
}

void JsonWriter::write_escaped(std::string_view s) {
  out_ << '"' << json_escape(s) << '"';
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  write_escaped(v);
  wrote_root_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (std::isfinite(v)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    out_ << buf;
  } else {
    out_ << "null";  // JSON has no NaN/Inf
  }
  wrote_root_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  out_ << v;
  wrote_root_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  out_ << v;
  wrote_root_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ << (v ? "true" : "false");
  wrote_root_ = true;
  return *this;
}

}  // namespace ct::util
