// Leveled logging. Quiet by default (warnings and errors only) so benches
// and tests stay readable; verbosity is raised via the CT_LOG_LEVEL
// environment variable (trace|debug|info|warn|error|off).
//
// Every line carries a monotonic timestamp (seconds since process start,
// steady clock, so it never jumps with wall-clock adjustments): durable-
// state events — checkpoint writes, journal replays, corruption discards —
// log structured `event=... key=value` lines, and the timestamps let a
// resumed run's provenance be reconstructed from the log alone.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace ct::util {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Parses a case-insensitive level name; returns kWarn on unknown input.
LogLevel parse_log_level(std::string_view name) noexcept;

/// Global log threshold: CT_LOG_LEVEL at first use, else kWarn.
LogLevel log_level() noexcept;

/// True if `level` messages would currently be emitted.
bool log_enabled(LogLevel level) noexcept;

/// Emits one formatted line to stderr:
/// "[LEVEL] +<seconds>s component: message".
void log_line(LogLevel level, std::string_view component,
              std::string_view message);

/// Monotonic seconds since process start (steady clock; first call pins
/// the origin). This is the timestamp log_line prefixes every line with.
double log_uptime_seconds() noexcept;

/// Formats the "+<seconds>s" stamp log_line uses (3 decimal places), so
/// tests and external tools can parse provenance lines byte-exactly.
std::string format_log_timestamp(double uptime_seconds);

/// Stream-style log statement that only formats when enabled:
///   CT_LOG(kInfo, "surge") << "node " << id << " wse=" << wse;
#define CT_LOG(level, component)                                       \
  for (bool ct_log_once =                                              \
           ::ct::util::log_enabled(::ct::util::LogLevel::level);       \
       ct_log_once; ct_log_once = false)                               \
  ::ct::util::LogStatement(::ct::util::LogLevel::level, component)

/// Helper that accumulates a message and emits it on destruction.
class LogStatement {
 public:
  LogStatement(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}
  ~LogStatement() { log_line(level_, component_, stream_.str()); }
  LogStatement(const LogStatement&) = delete;
  LogStatement& operator=(const LogStatement&) = delete;

  template <typename T>
  LogStatement& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream stream_;
};

}  // namespace ct::util
