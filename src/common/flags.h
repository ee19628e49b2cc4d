#ifndef M2G_COMMON_FLAGS_H_
#define M2G_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace m2g {

/// Minimal command-line parser for the CLI tools:
///   prog <command> [--flag=value] [--flag value] [--bool-flag] [args...]
/// No registration step — callers query parsed flags with typed getters
/// and defaults.
class FlagParser {
 public:
  /// Parses argv[1..); argv[1] is the command when it does not start
  /// with "--".
  static Result<FlagParser> Parse(int argc, const char* const* argv);

  const std::string& command() const { return command_; }
  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int GetInt(const std::string& name, int default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Names that were passed but never queried — typo detection.
  std::vector<std::string> UnqueriedFlags() const;

  /// Applies --log_level=debug|info|warning|error (--log-level also
  /// accepted) via SetLogLevel. Returns false when the flag is present
  /// but carries an unrecognized value; absent means true (no change).
  bool ApplyLogLevelFlag() const;

  /// Applies the observability knobs when present, leaving absent ones
  /// untouched: --obs_enabled=false (runtime kill switch),
  /// --obs_head_sample=N (keep every Nth wide event and its trace tree),
  /// --obs_tail_ms=X (always keep wide events at/over X ms total).
  void ApplyObsFlags() const;

 private:
  std::string command_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace m2g

#endif  // M2G_COMMON_FLAGS_H_
