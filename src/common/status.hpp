// Status / Result<T>: error handling as values for all fallible library paths.
//
// TimeCrypt is a networked storage system; failures (bad input, missing
// streams, crypto failures, transport errors) are expected outcomes, not
// exceptional programmer errors, so the public API returns Status/Result
// rather than throwing. Contract violations still assert.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace tc {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kPermissionDenied,
  kOutOfRange,
  kFailedPrecondition,
  kUnavailable,
  kInternal,
  kDataLoss,
  kUnimplemented,
};

/// Human-readable name of a status code (e.g. "NOT_FOUND").
std::string_view StatusCodeName(StatusCode code);

/// A success-or-error value. Cheap to copy on success (no allocation).
/// [[nodiscard]] (here and on Result) makes the compiler reject plainly
/// ignored returns, comma-operator discards included; tc_lint B3 requires a
/// reason comment on every cast to void and [[nodiscard]] on every function
/// returning a Status or Result by reference.
class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "NOT_FOUND: stream 42 does not exist".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline Status InvalidArgument(std::string msg) {
  return {StatusCode::kInvalidArgument, std::move(msg)};
}
inline Status NotFound(std::string msg) {
  return {StatusCode::kNotFound, std::move(msg)};
}
inline Status AlreadyExists(std::string msg) {
  return {StatusCode::kAlreadyExists, std::move(msg)};
}
inline Status PermissionDenied(std::string msg) {
  return {StatusCode::kPermissionDenied, std::move(msg)};
}
inline Status OutOfRange(std::string msg) {
  return {StatusCode::kOutOfRange, std::move(msg)};
}
inline Status FailedPrecondition(std::string msg) {
  return {StatusCode::kFailedPrecondition, std::move(msg)};
}
inline Status Unavailable(std::string msg) {
  return {StatusCode::kUnavailable, std::move(msg)};
}
inline Status Internal(std::string msg) {
  return {StatusCode::kInternal, std::move(msg)};
}
inline Status DataLoss(std::string msg) {
  return {StatusCode::kDataLoss, std::move(msg)};
}
inline Status Unimplemented(std::string msg) {
  return {StatusCode::kUnimplemented, std::move(msg)};
}

/// Either a value of type T or an error Status. Never both. (This is the
/// repo's StatusOr: value-or-error with the same discard discipline.)
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::move(value)) {}          // NOLINT(implicit)
  Result(Status status) : data_(std::move(status)) {    // NOLINT(implicit)
    assert(!std::get<Status>(data_).ok() &&
           "Result must not be constructed from an OK status");
  }

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(data_); }
  explicit operator bool() const { return ok(); }

  /// The error status; OK if a value is held.
  [[nodiscard]] Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(data_);
  }

  const T& value() const& {
    assert(ok());
    return std::get<T>(data_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(data_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(data_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  T value_or(T fallback) const {
    return ok() ? value() : std::move(fallback);
  }

 private:
  std::variant<T, Status> data_;
};

}  // namespace tc

/// Propagate a non-OK Status from an expression, abseil-style.
#define TC_RETURN_IF_ERROR(expr)                  \
  do {                                            \
    ::tc::Status tc_status_ = (expr);             \
    if (!tc_status_.ok()) return tc_status_;      \
  } while (false)

/// Evaluate a Result expression; on error return its Status, else bind value.
#define TC_ASSIGN_OR_RETURN(lhs, expr)            \
  TC_ASSIGN_OR_RETURN_IMPL_(                      \
      TC_STATUS_CONCAT_(tc_result_, __LINE__), lhs, expr)

#define TC_ASSIGN_OR_RETURN_IMPL_(var, lhs, expr) \
  auto var = (expr);                              \
  if (!var.ok()) return var.status();             \
  lhs = std::move(var).value()

#define TC_STATUS_CONCAT_INNER_(a, b) a##b
#define TC_STATUS_CONCAT_(a, b) TC_STATUS_CONCAT_INNER_(a, b)
