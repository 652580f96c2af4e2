#include "common/log.hpp"

#include <atomic>
#include <cstdio>
#include <string>

namespace ear::common {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};

const char* level_name(LogLevel l) {
  switch (l) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }

LogLevel log_level() { return g_level.load(); }

void logf(LogLevel level, const char* tag, const char* fmt, ...) {
  if (level < g_level.load(std::memory_order_relaxed)) return;
  // Format the whole line, then hand it to stdio in one call: stdio locks
  // the stream per call, so lines from concurrent runs never interleave.
  std::string line = std::string("[") + level_name(level) + "] " + tag + ": ";
  const std::size_t prefix = line.size();
  std::va_list args;
  va_start(args, fmt);
  std::va_list sizing;
  va_copy(sizing, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  if (n > 0) {
    line.resize(prefix + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(line.data() + prefix, static_cast<std::size_t>(n) + 1, fmt,
                   args);
    line.back() = '\n';  // overwrites vsnprintf's terminator
  } else {
    line += '\n';
  }
  va_end(args);
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace ear::common
