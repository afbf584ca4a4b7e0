#include "util/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace ct::util {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view s) noexcept {
  const auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  bool first = true;
  for (const auto& item : items) {
    if (!first) out += sep;
    out += item;
    first = false;
  }
  return out;
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  // Two-row dynamic program; strings here are flag names, so quadratic
  // time over a handful of characters is fine.
  if (a.size() > b.size()) std::swap(a, b);
  std::vector<std::size_t> prev(a.size() + 1);
  std::vector<std::size_t> cur(a.size() + 1);
  for (std::size_t i = 0; i <= a.size(); ++i) prev[i] = i;
  for (std::size_t j = 1; j <= b.size(); ++j) {
    cur[0] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      const std::size_t subst = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, subst});
    }
    std::swap(prev, cur);
  }
  return prev[a.size()];
}

std::string closest_match(std::string_view name,
                          const std::vector<std::string>& candidates,
                          std::size_t max_distance) {
  std::string best;
  std::size_t best_distance = max_distance + 1;
  for (const std::string& candidate : candidates) {
    const std::size_t d = edit_distance(name, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best;
}

std::optional<std::uint64_t> parse_u64(std::string_view s,
                                       std::uint64_t max) noexcept {
  std::uint64_t value = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (s.empty() || ec != std::errc{} || ptr != end || value > max) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> parse_double(std::string_view s) {
  // strtod would skip leading whitespace; a strict token has none.
  if (s.empty() || std::isspace(static_cast<unsigned char>(s.front()))) {
    return std::nullopt;
  }
  const std::string copy(s);  // strtod needs a terminated string
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) return std::nullopt;
  return value;
}

std::string format_fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string format_percent(double probability, int decimals) {
  return format_fixed(probability * 100.0, decimals) + "%";
}

}  // namespace ct::util
