// Minimal streaming JSON writer for machine-readable experiment outputs.
// Emits objects/arrays with correct escaping; no DOM, no parsing.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ct::util {

/// Streaming writer producing valid JSON (verified by tests against a
/// hand-rolled structural checker). Nesting is tracked so mismatched
/// begin/end calls throw instead of producing garbage.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out, bool pretty = false)
      : out_(out), pretty_(pretty) {}
  ~JsonWriter() = default;
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Writes an object key; must be followed by a value or container begin.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  // Unsigned widths besides std::uint64_t used to be ambiguous (equally
  // good conversions to int64/uint64), forcing hand-casts at every call
  // site. The constrained template gives every other unsigned integral —
  // unsigned, std::size_t, whatever the ABI maps them to — an exact match
  // that widens losslessly to the uint64_t overload.
  template <typename U,
            typename = std::enable_if_t<std::is_unsigned_v<U> &&
                                        !std::is_same_v<U, bool>>>
  JsonWriter& value(U v) {
    return value(static_cast<std::uint64_t>(v));
  }
  JsonWriter& value(bool v);

  /// key + scalar value in one call.
  template <typename T>
  JsonWriter& kv(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  /// True once all opened containers are closed.
  bool complete() const noexcept { return stack_.empty() && wrote_root_; }

 private:
  enum class Frame { kObject, kArray };
  void before_value();
  void newline_indent();
  void write_escaped(std::string_view s);

  std::ostream& out_;
  bool pretty_;
  std::vector<Frame> stack_;
  std::vector<bool> first_in_frame_;
  bool key_pending_ = false;
  bool wrote_root_ = false;
};

/// Escapes a string for inclusion in JSON (without surrounding quotes).
std::string json_escape(std::string_view s);

}  // namespace ct::util
