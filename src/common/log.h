// Leveled structured logging for the library and its binaries.
//
// Call sites use the TAXOREC_LOG macro with a severity token and attach
// key=value fields with Kv():
//
//   TAXOREC_LOG(WARN) << "checkpoint write failed"
//                     << Kv("path", path) << Kv("bytes", payload.size());
//
// emits one line to stderr (and the optional file sink):
//
//   W 00123.456 checkpoint.cc:87] checkpoint write failed
//       path=model.ckpt bytes=52488  (single line in practice)
//
// Severity below the global threshold short-circuits before any formatting
// (one relaxed atomic load), so disabled logging is free on hot paths. The
// threshold comes from, in priority order: SetLogLevel / --log-level
// (flags.h helper), the TAXOREC_LOG_LEVEL environment variable, and the
// default of "info". Sinks are mutex-protected; a line is emitted
// atomically with respect to other threads.
#ifndef TAXOREC_COMMON_LOG_H_
#define TAXOREC_COMMON_LOG_H_

#include <atomic>
#include <sstream>
#include <string>
#include <string_view>

#include "common/status.h"

namespace taxorec {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,  // threshold only; not a message severity
};

/// "debug"/"info"/"warn"/"error"/"off" -> level; InvalidArgument otherwise.
StatusOr<LogLevel> ParseLogLevel(std::string_view name);

/// Current threshold (initialized from TAXOREC_LOG_LEVEL on first use).
LogLevel GetLogLevel();

/// Installs a new threshold (kOff silences everything).
void SetLogLevel(LogLevel level);

namespace internal {
/// The threshold as a relaxed atomic for the macro's fast path. Accessed
/// through EnsureLogLevelInitialized the first time.
std::atomic<int>& LogThreshold();
void EnsureLogLevelInitialized();

/// True on the 1st, (n+1)th, (2n+1)th, ... call with the same counter
/// (one relaxed RMW). Backs TAXOREC_LOG_EVERY_N.
inline bool LogEveryN(std::atomic<uint64_t>* counter, uint64_t n) {
  if (n <= 1) return true;
  return counter->fetch_add(1, std::memory_order_relaxed) % n == 0;
}

/// True at most once per `interval_seconds` across all threads sharing
/// `last_us` (CAS claims the slot). Backs TAXOREC_LOG_RATELIMITED.
bool LogRateLimited(std::atomic<uint64_t>* last_us, double interval_seconds);
}  // namespace internal

/// True when a message of `level` would be emitted.
inline bool LogEnabled(LogLevel level) {
  internal::EnsureLogLevelInitialized();
  return static_cast<int>(level) >=
         internal::LogThreshold().load(std::memory_order_relaxed);
}

/// Adds a file sink next to stderr (append mode); "" removes it. Returns
/// IOError when the file cannot be opened.
Status SetLogFile(const std::string& path);

/// A key=value field attached to a log line; create with Kv().
template <typename T>
struct LogField {
  std::string_view key;
  const T& value;
};

template <typename T>
LogField<T> Kv(std::string_view key, const T& value) {
  return LogField<T>{key, value};
}

/// One log line under construction; emits on destruction. Use via
/// TAXOREC_LOG, not directly.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    message_ << value;
    return *this;
  }

  template <typename T>
  LogMessage& operator<<(const LogField<T>& field) {
    std::ostringstream v;
    v << field.value;
    AppendField(field.key, v.str());
    return *this;
  }

 private:
  void AppendField(std::string_view key, const std::string& value);

  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream message_;
  std::string fields_;
};

// Severity aliases for the macro's token pasting (k##INFO -> kINFO). The
// paste happens before macro expansion, so call sites are immune to DEBUG/
// ERROR being defined as preprocessor macros elsewhere.
inline constexpr LogLevel kDEBUG = LogLevel::kDebug;
inline constexpr LogLevel kINFO = LogLevel::kInfo;
inline constexpr LogLevel kWARN = LogLevel::kWarn;
inline constexpr LogLevel kERROR = LogLevel::kError;

// `if/else` so the statement swallows a trailing `<<` chain only when the
// level is enabled; message construction is never reached otherwise.
#define TAXOREC_LOG(severity)                               \
  if (!::taxorec::LogEnabled(::taxorec::k##severity))       \
    ;                                                       \
  else                                                      \
    ::taxorec::LogMessage(::taxorec::k##severity, __FILE__, __LINE__)

// Rate-limited variants for per-event messages on paths that can fire
// thousands of times per second under load (admission ladder stepping,
// trace-ring overwrites). Each macro expansion owns its own counter /
// timestamp, so the limit is per call site but shared across threads.
// Suppressed calls still short-circuit on the level check first, so fully
// disabled logging stays one relaxed load.
//
// TAXOREC_LOG_EVERY_N(WARN, 100) << ...;   // 1st, 101st, 201st, ... call
#define TAXOREC_LOG_EVERY_N(severity, n)                                    \
  if (!::taxorec::LogEnabled(::taxorec::k##severity) ||                     \
      ![] {                                                                 \
        static ::std::atomic<uint64_t> taxorec_every_n_counter{0};          \
        return ::taxorec::internal::LogEveryN(&taxorec_every_n_counter,     \
                                              (n));                         \
      }())                                                                  \
    ;                                                                       \
  else                                                                      \
    ::taxorec::LogMessage(::taxorec::k##severity, __FILE__, __LINE__)

// TAXOREC_LOG_RATELIMITED(WARN, 5.0) << ...;  // at most once per 5 s
#define TAXOREC_LOG_RATELIMITED(severity, interval_seconds)                 \
  if (!::taxorec::LogEnabled(::taxorec::k##severity) ||                     \
      ![] {                                                                 \
        static ::std::atomic<uint64_t> taxorec_ratelimit_last_us{0};        \
        return ::taxorec::internal::LogRateLimited(                         \
            &taxorec_ratelimit_last_us, (interval_seconds));                \
      }())                                                                  \
    ;                                                                       \
  else                                                                      \
    ::taxorec::LogMessage(::taxorec::k##severity, __FILE__, __LINE__)

}  // namespace taxorec

#endif  // TAXOREC_COMMON_LOG_H_
