// Minimal Status / StatusOr error-handling types (Arrow/RocksDB idiom).
//
// Used on I/O and configuration paths where failure is an expected outcome;
// numeric kernels use TAXOREC_CHECK invariants instead. No exceptions cross
// library API boundaries.
#ifndef TAXOREC_COMMON_STATUS_H_
#define TAXOREC_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "common/check.h"

namespace taxorec {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIOError,
  kFailedPrecondition,
  kInternal,
  kUnavailable,
};

/// A success-or-error result for fallible operations.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  /// The capability is absent here (no CPU timers, sanitizer stub,
  /// unsupported OS) — expected and non-fatal, unlike IOError.
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable "CODE: message" string.
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : rep_(std::move(status)) {  // NOLINT: implicit
    TAXOREC_CHECK_MSG(!std::get<Status>(rep_).ok(),
                      "StatusOr constructed from OK status without a value");
  }
  StatusOr(T value) : rep_(std::move(value)) {}  // NOLINT: implicit

  bool ok() const { return std::holds_alternative<T>(rep_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(rep_);
  }

  T& value() & {
    TAXOREC_CHECK_MSG(ok(), status().ToString().c_str());
    return std::get<T>(rep_);
  }
  const T& value() const& {
    TAXOREC_CHECK_MSG(ok(), status().ToString().c_str());
    return std::get<T>(rep_);
  }
  T&& value() && {
    TAXOREC_CHECK_MSG(ok(), status().ToString().c_str());
    return std::get<T>(std::move(rep_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<Status, T> rep_;
};

#define TAXOREC_RETURN_NOT_OK(expr)            \
  do {                                         \
    ::taxorec::Status _st = (expr);            \
    if (!_st.ok()) return _st;                 \
  } while (0)

}  // namespace taxorec

#endif  // TAXOREC_COMMON_STATUS_H_
