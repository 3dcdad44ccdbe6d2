// Minimal leveled logger. Messages below kWarning are discarded, so
// benchmarks stay quiet.
#ifndef NORMAN_COMMON_LOGGING_H_
#define NORMAN_COMMON_LOGGING_H_

#include <cstdlib>
#include <sstream>
#include <string_view>

namespace norman {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

namespace internal {

// One log statement; emits on destruction. LogMessage(kFatal) aborts.
class LogMessage {
 public:
  LogMessage(LogLevel level, std::string_view file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) {
      stream_ << v;
    }
    return *this;
  }

 private:
  LogLevel level_;
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace norman

#define NORMAN_LOG(severity)                                              \
  ::norman::internal::LogMessage(::norman::LogLevel::k##severity,         \
                                 __FILE__, __LINE__)

// Always-on invariant check (also in release builds): logs and aborts.
#define NORMAN_CHECK(cond)                                                \
  if (!(cond))                                                            \
  NORMAN_LOG(Fatal) << "Check failed: " #cond " "

#endif  // NORMAN_COMMON_LOGGING_H_
