#include "util/flags.h"

#include <limits>

#include "util/string_util.h"

namespace haten2 {

FlagParser::FlagParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq == std::string::npos) {
      flags_[body] = "true";
    } else {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    }
  }
}

bool FlagParser::Has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? default_value : it->second;
}

Result<int64_t> FlagParser::GetInt(const std::string& name,
                                   int64_t default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  Result<int64_t> v = ParseInt64(it->second);
  if (!v.ok()) {
    return Status::InvalidArgument(
        StrFormat("flag --%s: %s", name.c_str(),
                  v.status().message().c_str()));
  }
  return v;
}

Result<int> FlagParser::GetInt32(const std::string& name,
                                 int default_value) const {
  Result<int64_t> v = GetInt(name, default_value);
  if (!v.ok()) return v.status();
  if (*v < std::numeric_limits<int>::min() ||
      *v > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(
        StrFormat("flag --%s: %lld does not fit in an int", name.c_str(),
                  static_cast<long long>(*v)));
  }
  return static_cast<int>(*v);
}

Result<double> FlagParser::GetDouble(const std::string& name,
                                     double default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  Result<double> v = ParseDouble(it->second);
  if (!v.ok()) {
    return Status::InvalidArgument(
        StrFormat("flag --%s: %s", name.c_str(),
                  v.status().message().c_str()));
  }
  return v;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  return it->second != "false" && it->second != "0";
}

Result<std::vector<int64_t>> FlagParser::GetDims(
    const std::string& name, std::vector<int64_t> default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  std::vector<int64_t> dims;
  for (const std::string& part : Split(it->second, 'x')) {
    Result<int64_t> v = ParseInt64(part);
    if (!v.ok() || *v <= 0) {
      return Status::InvalidArgument(StrFormat(
          "flag --%s: '%s' is not a dimension list like 10x10x10",
          name.c_str(), it->second.c_str()));
    }
    dims.push_back(*v);
  }
  return dims;
}

Status FlagParser::Validate(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : flags_) {
    bool found = false;
    for (const std::string& k : known) {
      if (k == name) {
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
  }
  return Status::OK();
}

}  // namespace haten2
