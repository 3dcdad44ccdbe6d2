#include "src/common/logging.h"

#include <cstdio>

namespace norman {
namespace {

// Messages strictly below the threshold are discarded.
constexpr LogLevel kThreshold = LogLevel::kWarning;

std::string_view LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kFatal:
      return "F";
  }
  return "?";
}

// Strip directories: logs show "filter_engine.cc:42", not the full path.
std::string_view Basename(std::string_view path) {
  auto pos = path.find_last_of('/');
  return pos == std::string_view::npos ? path : path.substr(pos + 1);
}

}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, std::string_view file, int line)
    : level_(level), enabled_(level >= kThreshold) {
  if (enabled_) {
    stream_ << "[" << LevelName(level) << " " << Basename(file) << ":" << line
            << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace internal
}  // namespace norman
