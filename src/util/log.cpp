#include "util/log.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <mutex>

#include "util/env.hpp"

namespace gnnmls::util {

namespace {

std::atomic<LogLevel>& level_ref() {
  static std::atomic<LogLevel> level{
      parse_log_level(env::str(env::Knob::kLogLevel), LogLevel::kInfo)};
  return level;
}

const char* tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    default: return "?????";
  }
}

}  // namespace

LogLevel parse_log_level(std::string_view text, LogLevel fallback) {
  std::string lower;
  lower.reserve(text.size());
  for (const char c : text)
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off" || lower == "none") return LogLevel::kOff;
  return fallback;
}

LogLevel log_level() { return level_ref().load(std::memory_order_relaxed); }
void set_log_level(LogLevel level) { level_ref().store(level, std::memory_order_relaxed); }

void log_line(LogLevel level, std::string_view msg) {
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  std::fprintf(stderr, "[%s] %.*s\n", tag(level), static_cast<int>(msg.size()), msg.data());
}

}  // namespace gnnmls::util
