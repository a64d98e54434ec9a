#ifndef HATEN2_UTIL_FLAGS_H_
#define HATEN2_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/result.h"

namespace haten2 {

/// \brief Minimal command-line parser for the CLI tool and harnesses.
///
/// Recognizes `--name=value` and bare `--name` (value "true"); everything
/// else is a positional argument. Unknown flags are an error when queried
/// via Validate(), keeping typos loud.
class FlagParser {
 public:
  FlagParser(int argc, const char* const* argv);

  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& name) const;

  /// Typed getters with defaults; parse failures return error Status.
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  Result<int64_t> GetInt(const std::string& name,
                         int64_t default_value) const;
  /// GetInt for a flag stored in an `int`: a value outside int's range is
  /// an error naming the flag, never a wrapped value.
  Result<int> GetInt32(const std::string& name, int default_value) const;
  Result<double> GetDouble(const std::string& name,
                           double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Parses "AxBxC" into a dimension list.
  Result<std::vector<int64_t>> GetDims(const std::string& name,
                                       std::vector<int64_t> default_value)
      const;

  /// Returns an error naming any flag not in `known` (catches typos).
  Status Validate(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace haten2

#endif  // HATEN2_UTIL_FLAGS_H_
