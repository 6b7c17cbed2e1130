#include "util/cli.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/error.hpp"

namespace marlin {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.contains(name);
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

namespace {

/// True when `strto*` consumed all of a non-empty `value` without
/// skipping leading blanks or overflowing.
bool parsed_whole(const std::string& value, const char* end) {
  return !value.empty() &&
         std::isspace(static_cast<unsigned char>(value.front())) == 0 &&
         end == value.c_str() + value.size() && errno != ERANGE;
}

}  // namespace

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& value = it->second;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  MARLIN_CHECK(parsed_whole(value, end),
               "--" << name << " expects an integer, got `" << value << "`");
  return parsed;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& value = it->second;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value.c_str(), &end);
  MARLIN_CHECK(parsed_whole(value, end) && std::isfinite(parsed),
               "--" << name << " expects a finite number, got `" << value
                    << "`");
  return parsed;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace marlin
