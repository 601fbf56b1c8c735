// Minimal command-line flag parsing for the CLI tool.
//
// Supports --name=value and --name value forms, bool flags (--verbose /
// --verbose=false), and positional arguments. Unknown flags are errors.
#ifndef TAXOREC_COMMON_FLAGS_H_
#define TAXOREC_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace taxorec {

/// Parsed command line: flag map + positionals, with typed accessors.
class FlagSet {
 public:
  /// Declares a flag with a default value (all flags must be declared
  /// before Parse; value kinds are inferred from the default's type).
  void DefineString(const std::string& name, const std::string& default_value,
                    const std::string& help);
  void DefineInt(const std::string& name, int64_t default_value,
                 const std::string& help);
  void DefineDouble(const std::string& name, double default_value,
                    const std::string& help);
  void DefineBool(const std::string& name, bool default_value,
                  const std::string& help);

  /// Parses argv[start..argc). Returns InvalidArgument on unknown flags or
  /// unparsable values.
  Status Parse(int argc, const char* const* argv, int start = 1);

  std::string GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Usage text from the declared flags.
  std::string Help() const;

 private:
  enum class Kind { kString, kInt, kDouble, kBool };
  struct Flag {
    Kind kind;
    std::string value;  // current value, textual
    std::string help;
  };
  Status Set(const std::string& name, const std::string& value);

  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

/// Declares the shared --threads flag (worker threads for the parallel
/// kernels; default: hardware concurrency, 1 = legacy sequential path).
void DefineThreadsFlag(FlagSet* flags);

/// Validates the parsed --threads value (values < 1 are rejected with
/// InvalidArgument) and installs it via SetNumThreads.
Status ApplyThreadsFlag(const FlagSet& flags);

/// Validates the model-size flags taxorec_cli and taxorec_serve share
/// (values that would wrap when cast to size_t, or abort in a model
/// constructor): --epochs >= 0, --tag-dim >= 0, --dim >= 1 and, when
/// `min_item_dim` > 0 (the model carves the tag channel out of --dim, as
/// TaxoRec and AMF do), --dim > --tag-dim and
/// --dim − --tag-dim >= `min_item_dim`. Returns InvalidArgument naming the
/// flag.
Status CheckModelSizeFlags(const FlagSet& flags, size_t min_item_dim);

/// Declares the shared --log-level flag (debug|info|warn|error|off; empty =
/// keep the TAXOREC_LOG_LEVEL / default threshold).
void DefineLogLevelFlag(FlagSet* flags);

/// Installs the parsed --log-level value via SetLogLevel. An empty value
/// leaves the current threshold untouched; unknown names are rejected with
/// InvalidArgument.
Status ApplyLogLevelFlag(const FlagSet& flags);

}  // namespace taxorec

#endif  // TAXOREC_COMMON_FLAGS_H_
