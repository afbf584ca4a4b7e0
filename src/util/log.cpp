#include "util/log.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace ct::util {
namespace {

std::mutex g_emit_mutex;

const char* level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto ca = static_cast<unsigned char>(a[i]);
    const auto cb = static_cast<unsigned char>(b[i]);
    if (std::tolower(ca) != std::tolower(cb)) return false;
  }
  return true;
}

/// Pinned at first use, not static-init time, so the origin is stable no
/// matter which translation unit logs first.
std::chrono::steady_clock::time_point process_origin() noexcept {
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return origin;
}

}  // namespace

double log_uptime_seconds() noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       process_origin())
      .count();
}

std::string format_log_timestamp(double uptime_seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "+%.3fs", uptime_seconds);
  return buf;
}

LogLevel parse_log_level(std::string_view name) noexcept {
  if (iequals(name, "trace")) return LogLevel::kTrace;
  if (iequals(name, "debug")) return LogLevel::kDebug;
  if (iequals(name, "info")) return LogLevel::kInfo;
  if (iequals(name, "warn") || iequals(name, "warning")) return LogLevel::kWarn;
  if (iequals(name, "error")) return LogLevel::kError;
  if (iequals(name, "off") || iequals(name, "none")) return LogLevel::kOff;
  return LogLevel::kWarn;
}

LogLevel log_level() noexcept {
  static const LogLevel level = [] {
    const char* env = std::getenv("CT_LOG_LEVEL");
    return env != nullptr ? parse_log_level(env) : LogLevel::kWarn;
  }();
  return level;
}

bool log_enabled(LogLevel level) noexcept {
  return level >= log_level() && level != LogLevel::kOff;
}

void log_line(LogLevel level, std::string_view component,
              std::string_view message) {
  if (!log_enabled(level)) return;
  const std::string stamp = format_log_timestamp(log_uptime_seconds());
  const std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::cerr << '[' << level_name(level) << "] " << stamp << ' ' << component
            << ": " << message << '\n';
}

}  // namespace ct::util
