#include "common/flags.h"

#include <cstdlib>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/wide_event.h"

namespace m2g {

Result<FlagParser> FlagParser::Parse(int argc, const char* const* argv) {
  FlagParser parser;
  int i = 1;
  if (i < argc && argv[i][0] != '-') {
    parser.command_ = argv[i];
    ++i;
  }
  for (; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      parser.positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    if (arg.empty()) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      parser.flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      parser.flags_[arg] = argv[i + 1];
      ++i;
    } else {
      parser.flags_[arg] = "true";  // boolean flag
    }
  }
  return parser;
}

bool FlagParser::Has(const std::string& name) const {
  queried_[name] = true;
  return flags_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  queried_[name] = true;
  auto it = flags_.find(name);
  return it == flags_.end() ? default_value : it->second;
}

int FlagParser::GetInt(const std::string& name, int default_value) const {
  queried_[name] = true;
  auto it = flags_.find(name);
  return it == flags_.end() ? default_value : std::atoi(it->second.c_str());
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  queried_[name] = true;
  auto it = flags_.find(name);
  return it == flags_.end() ? default_value : std::atof(it->second.c_str());
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  queried_[name] = true;
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

bool FlagParser::ApplyLogLevelFlag() const {
  std::string name = GetString("log_level", "");
  if (name.empty()) name = GetString("log-level", "");
  if (name.empty()) return true;
  LogLevel level;
  if (!ParseLogLevel(name, &level)) return false;
  SetLogLevel(level);
  return true;
}

void FlagParser::ApplyObsFlags() const {
  if (Has("obs_enabled")) obs::SetEnabled(GetBool("obs_enabled", true));
  if (Has("obs_head_sample") || Has("obs_tail_ms")) {
    obs::WideEventOptions options = obs::WideEventSink::Global().options();
    options.head_sample_every =
        GetInt("obs_head_sample", options.head_sample_every);
    options.tail_keep_over_ms =
        GetDouble("obs_tail_ms", options.tail_keep_over_ms);
    obs::WideEventSink::Global().Configure(options);
  }
}

std::vector<std::string> FlagParser::UnqueriedFlags() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : flags_) {
    (void)value;
    if (queried_.find(name) == queried_.end()) out.push_back(name);
  }
  return out;
}

}  // namespace m2g
