// Error handling for expected failures.
//
// Invalid blocks, malformed wire messages and permission denials are
// *normal* inputs for a node on an open ad hoc network, so validation
// reports them as values (`Status` / `StatusOr<T>`) rather than
// exceptions; exceptions remain reserved for programming errors.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace vegvisir {

enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,    // malformed input (bad encoding, bad hex, ...)
  kNotFound,           // referenced entity missing (parent block, CRDT)
  kAlreadyExists,      // duplicate insert (block, CRDT name)
  kPermissionDenied,   // role not allowed to perform operation
  kFailedPrecondition, // structural rule violated (timestamp, genesis)
  kUnauthenticated,    // bad signature / unknown creator
  kResourceExhausted,  // storage cap or message size exceeded
  kInternal,           // invariant violation inside the library
};

// Human-readable name for an ErrorCode ("ok", "not-found", ...).
const char* ErrorCodeName(ErrorCode code);

// A cheap, copyable success-or-error result.
class Status {
 public:
  Status() = default;  // OK
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "ok" or "<code-name>: <message>".
  std::string ToString() const;

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

inline Status InvalidArgumentError(std::string msg) {
  return Status(ErrorCode::kInvalidArgument, std::move(msg));
}
inline Status NotFoundError(std::string msg) {
  return Status(ErrorCode::kNotFound, std::move(msg));
}
inline Status AlreadyExistsError(std::string msg) {
  return Status(ErrorCode::kAlreadyExists, std::move(msg));
}
inline Status PermissionDeniedError(std::string msg) {
  return Status(ErrorCode::kPermissionDenied, std::move(msg));
}
inline Status FailedPreconditionError(std::string msg) {
  return Status(ErrorCode::kFailedPrecondition, std::move(msg));
}
inline Status UnauthenticatedError(std::string msg) {
  return Status(ErrorCode::kUnauthenticated, std::move(msg));
}
inline Status ResourceExhaustedError(std::string msg) {
  return Status(ErrorCode::kResourceExhausted, std::move(msg));
}
inline Status InternalError(std::string msg) {
  return Status(ErrorCode::kInternal, std::move(msg));
}

// A value or a Status explaining why there is none.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      // An OK StatusOr must carry a value; constructing one from a bare
      // OK status is a programming error.
      status_ = InternalError("StatusOr constructed from OK status");
    }
  }
  StatusOr(T value) : value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CheckOk();
    return *value_;
  }
  T& value() & {
    CheckOk();
    return *value_;
  }
  T&& value() && {
    CheckOk();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  // `*std::move(s)` moves the value out (without this overload it
  // binds to the const& one above and copies).
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const {
    if (!status_.ok()) std::abort();
  }

  Status status_;
  std::optional<T> value_;
};

// Propagates a non-OK status out of the enclosing function.
#define VEGVISIR_RETURN_IF_ERROR(expr)                  \
  do {                                                  \
    ::vegvisir::Status vegvisir_status_ = (expr);       \
    if (!vegvisir_status_.ok()) return vegvisir_status_; \
  } while (false)

}  // namespace vegvisir
