// Status / Result error-handling primitives in the Arrow/RocksDB idiom.
//
// Fallible public APIs return `Status` (or `Result<T>` when they produce a
// value). Internal invariants that indicate programmer error use BSG_CHECK,
// which aborts with a message — these are bugs, not runtime conditions.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace bsg {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kInternal,
  kNotImplemented,
  // Serving-taxonomy codes (see README "Failure semantics"): the retry /
  // degrade machinery dispatches on these.
  kUnavailable,        ///< transient dependency failure — retryable
  kDeadlineExceeded,   ///< the request's deadline expired — not retryable
  kResourceExhausted,  ///< a bounded resource refused — shed, don't retry
  kDataLoss,           ///< durable data unrecoverable — terminal
};

/// True for codes worth a bounded retry with backoff: the failure is
/// transient by taxonomy (an injected or real dependency blip), not a
/// property of the request. Deadline expiry, exhaustion and corruption are
/// never retryable — retrying cannot change the outcome, only burn budget.
constexpr bool IsRetryable(StatusCode code) {
  return code == StatusCode::kUnavailable;
}

/// A lightweight success-or-error value. Copyable, cheap when OK.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status OutOfRange(std::string m) {
    return Status(StatusCode::kOutOfRange, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status AlreadyExists(std::string m) {
    return Status(StatusCode::kAlreadyExists, std::move(m));
  }
  static Status FailedPrecondition(std::string m) {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }
  static Status NotImplemented(std::string m) {
    return Status(StatusCode::kNotImplemented, std::move(m));
  }
  static Status Unavailable(std::string m) {
    return Status(StatusCode::kUnavailable, std::move(m));
  }
  static Status DeadlineExceeded(std::string m) {
    return Status(StatusCode::kDeadlineExceeded, std::move(m));
  }
  static Status ResourceExhausted(std::string m) {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status DataLoss(std::string m) {
    return Status(StatusCode::kDataLoss, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// Human-readable "CODE: message" string.
  std::string ToString() const {
    if (ok()) return "OK";
    const char* name = "UNKNOWN";
    switch (code_) {
      case StatusCode::kOk: name = "OK"; break;
      case StatusCode::kInvalidArgument: name = "INVALID_ARGUMENT"; break;
      case StatusCode::kOutOfRange: name = "OUT_OF_RANGE"; break;
      case StatusCode::kNotFound: name = "NOT_FOUND"; break;
      case StatusCode::kAlreadyExists: name = "ALREADY_EXISTS"; break;
      case StatusCode::kFailedPrecondition: name = "FAILED_PRECONDITION"; break;
      case StatusCode::kInternal: name = "INTERNAL"; break;
      case StatusCode::kNotImplemented: name = "NOT_IMPLEMENTED"; break;
      case StatusCode::kUnavailable: name = "UNAVAILABLE"; break;
      case StatusCode::kDeadlineExceeded: name = "DEADLINE_EXCEEDED"; break;
      case StatusCode::kResourceExhausted: name = "RESOURCE_EXHAUSTED"; break;
      case StatusCode::kDataLoss: name = "DATA_LOSS"; break;
    }
    return std::string(name) + ": " + msg_;
  }

 private:
  StatusCode code_;
  std::string msg_;
};

/// A value-or-error holder, analogous to arrow::Result<T>.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}            // NOLINT implicit
  Result(Status status) : status_(std::move(status)) {}    // NOLINT implicit

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Returns the contained value; aborts if not ok.
  const T& ValueOrDie() const {
    if (!ok()) {
      std::fprintf(stderr, "Result::ValueOrDie on error: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
    return *value_;
  }
  T& ValueOrDie() {
    if (!ok()) {
      std::fprintf(stderr, "Result::ValueOrDie on error: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
    return *value_;
  }
  /// Moves the contained value out; aborts if not ok.
  T MoveValueOrDie() {
    if (!ok()) {
      std::fprintf(stderr, "Result::MoveValueOrDie on error: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
    return std::move(*value_);
  }

 private:
  std::optional<T> value_;
  Status status_ = Status::OK();
};

}  // namespace bsg

/// Abort with a message when an internal invariant is violated.
#define BSG_CHECK(cond, msg)                                              \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "BSG_CHECK failed at %s:%d: %s — %s\n",        \
                   __FILE__, __LINE__, #cond, msg);                       \
      std::abort();                                                       \
    }                                                                     \
  } while (0)

/// Propagate a non-OK Status to the caller.
#define BSG_RETURN_NOT_OK(expr)               \
  do {                                        \
    ::bsg::Status _st = (expr);               \
    if (!_st.ok()) return _st;                \
  } while (0)
