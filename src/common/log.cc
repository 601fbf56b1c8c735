#include "common/log.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>

namespace taxorec {
namespace {

std::mutex& SinkMutex() {
  static std::mutex mu;
  return mu;
}

std::ofstream& FileSink() {
  static std::ofstream sink;
  return sink;
}

/// Seconds since process start; monotonic, cheap, and stable across the
/// stderr and file sinks.
double UptimeSeconds() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

char LevelLetter(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return 'D';
    case LogLevel::kInfo:
      return 'I';
    case LogLevel::kWarn:
      return 'W';
    case LogLevel::kError:
      return 'E';
    case LogLevel::kOff:
      break;
  }
  return '?';
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

namespace internal {

std::atomic<int>& LogThreshold() {
  static std::atomic<int> threshold{static_cast<int>(LogLevel::kInfo)};
  return threshold;
}

bool LogRateLimited(std::atomic<uint64_t>* last_us, double interval_seconds) {
  // +1 keeps 0 free as the "never logged" sentinel.
  const uint64_t now_us =
      static_cast<uint64_t>(UptimeSeconds() * 1e6) + 1;
  const uint64_t interval_us =
      interval_seconds > 0.0 ? static_cast<uint64_t>(interval_seconds * 1e6)
                             : 0;
  uint64_t last = last_us->load(std::memory_order_relaxed);
  while (last == 0 || now_us - last >= interval_us) {
    // CAS claims this interval; a losing thread re-checks against the
    // winner's timestamp and stays quiet.
    if (last_us->compare_exchange_weak(last, now_us,
                                       std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void EnsureLogLevelInitialized() {
  static const bool initialized = [] {
    if (const char* env = std::getenv("TAXOREC_LOG_LEVEL")) {
      auto parsed = ParseLogLevel(env);
      if (parsed.ok()) {
        LogThreshold().store(static_cast<int>(*parsed),
                             std::memory_order_relaxed);
      } else {
        std::fprintf(stderr, "W taxorec: ignoring bad TAXOREC_LOG_LEVEL=%s\n",
                     env);
      }
    }
    return true;
  }();
  (void)initialized;
}

}  // namespace internal

StatusOr<LogLevel> ParseLogLevel(std::string_view name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn" || name == "warning") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off" || name == "none") return LogLevel::kOff;
  return Status::InvalidArgument("unknown log level '" + std::string(name) +
                                 "' (want debug|info|warn|error|off)");
}

LogLevel GetLogLevel() {
  internal::EnsureLogLevelInitialized();
  return static_cast<LogLevel>(
      internal::LogThreshold().load(std::memory_order_relaxed));
}

void SetLogLevel(LogLevel level) {
  internal::EnsureLogLevelInitialized();
  internal::LogThreshold().store(static_cast<int>(level),
                                 std::memory_order_relaxed);
}

Status SetLogFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(SinkMutex());
  std::ofstream& sink = FileSink();
  if (sink.is_open()) sink.close();
  if (path.empty()) return Status::OK();
  sink.open(path, std::ios::app);
  if (!sink) return Status::IOError("cannot open log file: " + path);
  return Status::OK();
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

void LogMessage::AppendField(std::string_view key, const std::string& value) {
  fields_ += ' ';
  fields_ += key;
  fields_ += '=';
  // Quote values that would break whitespace-splitting consumers.
  if (value.empty() ||
      value.find_first_of(" \t\n\"=") != std::string::npos) {
    fields_ += '"';
    for (char c : value) {
      if (c == '"' || c == '\\') fields_ += '\\';
      fields_ += (c == '\n' ? ' ' : c);
    }
    fields_ += '"';
  } else {
    fields_ += value;
  }
}

LogMessage::~LogMessage() {
  char prefix[64];
  std::snprintf(prefix, sizeof(prefix), "%c %09.3f %s:%d] ",
                LevelLetter(level_), UptimeSeconds(), Basename(file_), line_);
  const std::string line =
      prefix + message_.str() + fields_ + "\n";
  std::lock_guard<std::mutex> lock(SinkMutex());
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::ofstream& sink = FileSink();
  if (sink.is_open()) {
    sink << line;
    sink.flush();
  }
}

}  // namespace taxorec
