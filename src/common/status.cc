#include "src/common/status.h"

namespace norman {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case StatusCode::kPermissionDenied:
      return "PERMISSION_DENIED";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kUnimplemented:
      return "UNIMPLEMENTED";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out(StatusCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

Status OkStatus() { return Status(); }

Status InvalidArgumentError(std::string_view msg) {
  return Status(StatusCode::kInvalidArgument, std::string(msg));
}
Status NotFoundError(std::string_view msg) {
  return Status(StatusCode::kNotFound, std::string(msg));
}
Status AlreadyExistsError(std::string_view msg) {
  return Status(StatusCode::kAlreadyExists, std::string(msg));
}
Status PermissionDeniedError(std::string_view msg) {
  return Status(StatusCode::kPermissionDenied, std::string(msg));
}
Status ResourceExhaustedError(std::string_view msg) {
  return Status(StatusCode::kResourceExhausted, std::string(msg));
}
Status FailedPreconditionError(std::string_view msg) {
  return Status(StatusCode::kFailedPrecondition, std::string(msg));
}
Status OutOfRangeError(std::string_view msg) {
  return Status(StatusCode::kOutOfRange, std::string(msg));
}
Status InternalError(std::string_view msg) {
  return Status(StatusCode::kInternal, std::string(msg));
}
Status UnavailableError(std::string_view msg) {
  return Status(StatusCode::kUnavailable, std::string(msg));
}

}  // namespace norman
