#include "common/flags.h"

#include <cstdlib>
#include <sstream>

#include "common/check.h"
#include "common/log.h"
#include "common/parallel.h"

namespace taxorec {
namespace {

bool ParseBoolValue(const std::string& v, bool* out) {
  if (v == "true" || v == "1" || v == "yes" || v.empty()) {
    *out = true;
    return true;
  }
  if (v == "false" || v == "0" || v == "no") {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace

void FlagSet::DefineString(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  flags_[name] = {Kind::kString, default_value, help};
}

void FlagSet::DefineInt(const std::string& name, int64_t default_value,
                        const std::string& help) {
  flags_[name] = {Kind::kInt, std::to_string(default_value), help};
}

void FlagSet::DefineDouble(const std::string& name, double default_value,
                           const std::string& help) {
  std::ostringstream ss;
  ss << default_value;
  flags_[name] = {Kind::kDouble, ss.str(), help};
}

void FlagSet::DefineBool(const std::string& name, bool default_value,
                         const std::string& help) {
  flags_[name] = {Kind::kBool, default_value ? "true" : "false", help};
}

Status FlagSet::Set(const std::string& name, const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return Status::InvalidArgument("unknown flag --" + name);
  }
  switch (it->second.kind) {
    case Kind::kString:
      break;
    case Kind::kInt: {
      char* end = nullptr;
      std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("flag --" + name +
                                       " expects an integer, got '" + value +
                                       "'");
      }
      break;
    }
    case Kind::kDouble: {
      char* end = nullptr;
      std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("flag --" + name +
                                       " expects a number, got '" + value +
                                       "'");
      }
      break;
    }
    case Kind::kBool: {
      bool b;
      if (!ParseBoolValue(value, &b)) {
        return Status::InvalidArgument("flag --" + name +
                                       " expects a bool, got '" + value + "'");
      }
      it->second.value = b ? "true" : "false";
      return Status::OK();
    }
  }
  it->second.value = value;
  return Status::OK();
}

Status FlagSet::Parse(int argc, const char* const* argv, int start) {
  positional_.clear();
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      TAXOREC_RETURN_NOT_OK(Set(arg.substr(0, eq), arg.substr(eq + 1)));
      continue;
    }
    // --name value form, except bools which may stand alone.
    const auto it = flags_.find(arg);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + arg);
    }
    if (it->second.kind == Kind::kBool) {
      it->second.value = "true";
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag --" + arg + " needs a value");
    }
    TAXOREC_RETURN_NOT_OK(Set(arg, argv[++i]));
  }
  return Status::OK();
}

std::string FlagSet::GetString(const std::string& name) const {
  const auto it = flags_.find(name);
  TAXOREC_CHECK_MSG(it != flags_.end(), name.c_str());
  return it->second.value;
}

int64_t FlagSet::GetInt(const std::string& name) const {
  return std::strtoll(GetString(name).c_str(), nullptr, 10);
}

double FlagSet::GetDouble(const std::string& name) const {
  return std::strtod(GetString(name).c_str(), nullptr);
}

bool FlagSet::GetBool(const std::string& name) const {
  return GetString(name) == "true";
}

void DefineThreadsFlag(FlagSet* flags) {
  flags->DefineInt("threads", HardwareThreads(),
                   "worker threads for parallel kernels (1 = sequential)");
}

Status ApplyThreadsFlag(const FlagSet& flags) {
  const int64_t threads = flags.GetInt("threads");
  if (threads < 1) {
    return Status::InvalidArgument("--threads must be >= 1, got " +
                                   std::to_string(threads));
  }
  SetNumThreads(static_cast<int>(threads));
  return Status::OK();
}

Status CheckModelSizeFlags(const FlagSet& flags, size_t min_item_dim) {
  if (flags.GetInt("epochs") < 0) {
    return Status::InvalidArgument("--epochs must be >= 0");
  }
  if (flags.GetInt("tag-dim") < 0) {
    return Status::InvalidArgument("--tag-dim must be >= 0");
  }
  if (flags.GetInt("dim") < 1) {
    return Status::InvalidArgument("--dim must be >= 1");
  }
  if (min_item_dim == 0) return Status::OK();
  const int64_t item_dim = flags.GetInt("dim") - flags.GetInt("tag-dim");
  if (item_dim < 1) {
    return Status::InvalidArgument("--dim must be > --tag-dim");
  }
  if (static_cast<size_t>(item_dim) < min_item_dim) {
    return Status::InvalidArgument("--dim - --tag-dim must be >= " +
                                   std::to_string(min_item_dim));
  }
  return Status::OK();
}

void DefineLogLevelFlag(FlagSet* flags) {
  flags->DefineString("log-level", "",
                      "log threshold: debug|info|warn|error|off (empty = "
                      "TAXOREC_LOG_LEVEL or info)");
}

Status ApplyLogLevelFlag(const FlagSet& flags) {
  const std::string value = flags.GetString("log-level");
  if (value.empty()) return Status::OK();
  StatusOr<LogLevel> level = ParseLogLevel(value);
  if (!level.ok()) return level.status();
  SetLogLevel(*level);
  return Status::OK();
}

std::string FlagSet::Help() const {
  std::ostringstream out;
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name << " (default: " << flag.value << ")  " << flag.help
        << "\n";
  }
  return out.str();
}

}  // namespace taxorec
