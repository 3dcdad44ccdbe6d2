// Lightweight Status / StatusOr error-handling types used across Norman.
//
// We deliberately avoid exceptions on the datapath; every fallible operation
// returns Status or StatusOr<T>. The design follows absl::Status in spirit
// but is self-contained.
#ifndef NORMAN_COMMON_STATUS_H_
#define NORMAN_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace norman {

// Canonical error space, a subset of the absl/gRPC canonical codes that is
// sufficient for an OS/NIC control plane.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kPermissionDenied,
  kResourceExhausted,
  kFailedPrecondition,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kUnavailable,
};

// Human-readable name for a StatusCode ("OK", "NOT_FOUND", ...).
std::string_view StatusCodeName(StatusCode code);

// Value-semantic error descriptor: a code plus an optional message.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Renders e.g. "PERMISSION_DENIED: filter table is kernel-only".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

// Convenience constructors mirroring absl::*Error.
Status OkStatus();
Status InvalidArgumentError(std::string_view msg);
Status NotFoundError(std::string_view msg);
Status AlreadyExistsError(std::string_view msg);
Status PermissionDeniedError(std::string_view msg);
Status ResourceExhaustedError(std::string_view msg);
Status FailedPreconditionError(std::string_view msg);
Status OutOfRangeError(std::string_view msg);
Status InternalError(std::string_view msg);
Status UnavailableError(std::string_view msg);

// Either a T or a non-OK Status. Accessing value() on an error aborts in
// debug builds; callers must check ok() first.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(const T& value) : rep_(value) {}             // NOLINT(runtime/explicit)
  StatusOr(T&& value) : rep_(std::move(value)) {}       // NOLINT(runtime/explicit)
  StatusOr(Status status) : rep_(std::move(status)) {   // NOLINT(runtime/explicit)
    assert(!std::get<Status>(rep_).ok() && "StatusOr must not hold OK status");
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  const Status& status() const {
    static const Status kOk{};
    return ok() ? kOk : std::get<Status>(rep_);
  }

  T& value() & {
    assert(ok());
    return std::get<T>(rep_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(rep_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(rep_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  T value_or(T fallback) const {
    return ok() ? std::get<T>(rep_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> rep_;
};

// Propagate-on-error helpers, used as:
//   NORMAN_RETURN_IF_ERROR(DoThing());
//   NORMAN_ASSIGN_OR_RETURN(auto v, ComputeThing());
#define NORMAN_RETURN_IF_ERROR(expr)            \
  do {                                          \
    ::norman::Status norman_status_ = (expr);   \
    if (!norman_status_.ok()) {                 \
      return norman_status_;                    \
    }                                           \
  } while (false)

#define NORMAN_STATUS_CONCAT_INNER_(x, y) x##y
#define NORMAN_STATUS_CONCAT_(x, y) NORMAN_STATUS_CONCAT_INNER_(x, y)

#define NORMAN_ASSIGN_OR_RETURN(lhs, expr)                                  \
  auto NORMAN_STATUS_CONCAT_(norman_sor_, __LINE__) = (expr);               \
  if (!NORMAN_STATUS_CONCAT_(norman_sor_, __LINE__).ok()) {                 \
    return NORMAN_STATUS_CONCAT_(norman_sor_, __LINE__).status();           \
  }                                                                         \
  lhs = std::move(NORMAN_STATUS_CONCAT_(norman_sor_, __LINE__)).value()

}  // namespace norman

#endif  // NORMAN_COMMON_STATUS_H_
