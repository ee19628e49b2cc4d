#include "common/logging.h"

#include <atomic>
#include <cstdio>

#include "obs/trace_context.h"

namespace m2g {
namespace {

std::atomic<int> g_min_level{static_cast<int>(LogLevel::kInfo)};
std::atomic<LogSink*> g_sink{nullptr};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

bool ParseLogLevel(const std::string& name, LogLevel* level) {
  if (name == "debug") {
    *level = LogLevel::kDebug;
  } else if (name == "info") {
    *level = LogLevel::kInfo;
  } else if (name == "warning" || name == "warn") {
    *level = LogLevel::kWarning;
  } else if (name == "error") {
    *level = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

void SetLogSink(LogSink* sink) {
  g_sink.store(sink, std::memory_order_release);
}

LogSink* GetLogSink() { return g_sink.load(std::memory_order_acquire); }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // Strip the directory prefix for terser lines.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line;
  // Correlate log lines with the request trace working on this thread,
  // so a wide event / span tree and its logs join on one id.
  if (const uint64_t trace_id = obs::CurrentTraceId()) {
    stream_ << " trace=" << trace_id;
  }
  stream_ << "] ";
}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) <
      g_min_level.load(std::memory_order_relaxed)) {
    return;
  }
  std::string line = stream_.str();
  if (LogSink* sink = g_sink.load(std::memory_order_acquire)) {
    sink->Write(level_, line);
    return;
  }
  line.push_back('\n');
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace internal
}  // namespace m2g
