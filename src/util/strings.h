// Small string helpers shared across modules.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ct::util {

/// Splits on a single-character delimiter; adjacent delimiters yield empty
/// fields (CSV-like semantics, not whitespace collapsing).
std::vector<std::string> split(std::string_view s, char delim);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view s) noexcept;

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Lower-cases ASCII.
std::string to_lower(std::string_view s);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// Levenshtein edit distance (unit-cost insert/delete/substitute).
std::size_t edit_distance(std::string_view a, std::string_view b);

/// The candidate closest to `name` by edit_distance, provided it is within
/// `max_distance` edits (ties broken by candidate order). Returns "" when
/// nothing qualifies — the "did you mean --jobs?" helper for flag typos.
std::string closest_match(std::string_view name,
                          const std::vector<std::string>& candidates,
                          std::size_t max_distance = 2);

/// Strict parse of a whole token as a decimal count: digits only (no sign,
/// no whitespace, no suffix), at most `max`. std::nullopt otherwise, so
/// "4x", "-3" and "" never read as numbers.
std::optional<std::uint64_t> parse_u64(
    std::string_view s,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) noexcept;

/// Strict parse of a whole token as a double (strtod syntax, no leading or
/// trailing characters). "inf" and "nan" parse; callers that need a finite
/// value check it.
std::optional<double> parse_double(std::string_view s);

/// Formats a double with fixed decimals (e.g. percentages in reports).
std::string format_fixed(double v, int decimals);

/// "90.5%" style percentage of a [0,1] probability.
std::string format_percent(double probability, int decimals = 1);

}  // namespace ct::util
