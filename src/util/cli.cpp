#include "util/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "util/error.hpp"
#include "util/names.hpp"

namespace marlin {

namespace {

std::string program_name(int argc, const char* const* argv) {
  if (argc < 1 || argv[0] == nullptr) return "marlin";
  const std::string path = argv[0];
  return path.substr(path.find_last_of('/') + 1);
}

/// True when `strto*` consumed all of a non-empty `value` without
/// skipping leading blanks or overflowing.
bool parsed_whole(const std::string& value, const char* end) {
  return !value.empty() &&
         std::isspace(static_cast<unsigned char>(value.front())) == 0 &&
         end == value.c_str() + value.size() && errno != ERANGE;
}

}  // namespace

std::int64_t parse_int(const std::string& what, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (!parsed_whole(value, end)) {
    throw Error(what + " expects an integer, got `" + value + "`");
  }
  return parsed;
}

CliArgs::CliArgs(int argc, const char* const* argv)
    : program_(program_name(argc, argv)) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw Error("unexpected argument `" + arg +
                  "`; flags take the form --name value or --name=value");
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      given_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      given_.emplace_back(arg, argv[++i]);
    } else {
      given_.emplace_back(arg, "true");
    }
  }
  help_ = has("help");
}

const std::string* CliArgs::find(const std::string& name) const {
  const auto it = std::find_if(given_.rbegin(), given_.rend(),
                               [&](const auto& f) { return f.first == name; });
  return it == given_.rend() ? nullptr : &it->second;
}

bool CliArgs::has(const std::string& name) const {
  return find(name) != nullptr;
}

void CliArgs::declare(const std::string& name, const char* type,
                      std::string fallback, const std::string& help) {
  MARLIN_CHECK(!finished_, "--" << name << " is read after finish()");
  const bool known = std::any_of(declared_.begin(), declared_.end(),
                                 [&](const Flag& f) { return f.name == name; });
  if (known) return;
  std::string usage = "--" + name;
  if (*type != '\0') usage += std::string(" ") + type;
  declared_.push_back({name, std::move(usage), std::move(fallback), help});
}

std::string CliArgs::get_typed(const std::string& name, const char* type,
                               const std::string& fallback,
                               const std::string& help) {
  declare(name, type, fallback.empty() ? "\"\"" : fallback, help);
  const std::string* value = find(name);
  return value == nullptr ? fallback : *value;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback,
                                const std::string& help) {
  return get_typed(name, "STR", fallback, help);
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t fallback,
                              const std::string& help) {
  declare(name, "INT", std::to_string(fallback), help);
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  return parse_or(
      *value, [&](const std::string& v) { return parse_int("--" + name, v); },
      [&] { return fallback; });
}

double CliArgs::get_double(const std::string& name, double fallback,
                           const std::string& help) {
  std::ostringstream shown;
  shown << fallback;
  declare(name, "NUM", shown.str(), help);
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  const auto parse = [&](const std::string& v) {
    char* end = nullptr;
    errno = 0;
    const double parsed = std::strtod(v.c_str(), &end);
    if (!parsed_whole(v, end) || !std::isfinite(parsed)) {
      throw Error("--" + name + " expects a finite number, got `" + v + "`");
    }
    return parsed;
  };
  return parse_or(*value, parse, [&] { return fallback; });
}

bool CliArgs::get_bool(const std::string& name, bool fallback,
                       const std::string& help) {
  declare(name, "", fallback ? "true" : "false", help);
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  const auto parse = [&](const std::string& v) {
    if (v == "true" || v == "1" || v == "yes") return true;
    if (v == "false" || v == "0" || v == "no") return false;
    throw Error("--" + name + " expects true/false, 1/0 or yes/no, got `" +
                v + "`");
  };
  return parse_or(*value, parse, [&] { return fallback; });
}

std::string CliArgs::help(const std::string& summary) const {
  std::vector<Flag> rows = declared_;
  rows.push_back({"help", "--help", "", "print this help and exit"});
  std::size_t width = 0;
  for (const auto& f : rows) width = std::max(width, f.usage.size());
  std::ostringstream os;
  os << program_ << " — " << summary << "\n\nFlags:\n";
  for (const auto& f : rows) {
    os << "  " << f.usage << std::string(width - f.usage.size() + 2, ' ')
       << f.help;
    if (!f.fallback.empty()) os << " (default: " << f.fallback << ")";
    os << "\n";
  }
  return os.str();
}

void CliArgs::finish(const std::string& summary) {
  finished_ = true;
  if (has("help")) {
    std::cout << help(summary);
    std::exit(0);
  }
  for (const auto& given : given_) {
    const auto declared = [&](const Flag& f) { return f.name == given.first; };
    if (std::any_of(declared_.begin(), declared_.end(), declared)) continue;
    std::vector<std::string> known;
    for (const auto& f : declared_) known.push_back("--" + f.name);
    known.emplace_back("--help");
    throw Error(unknown_name_message("flag", "--" + given.first, known));
  }
}

int cli_main(int argc, const char* const* argv, int (*body)(CliArgs&)) {
  try {
    CliArgs args(argc, argv);
    return body(args);
  } catch (const Error& e) {
    std::cerr << program_name(argc, argv) << ": " << e.what() << "\n";
    return 2;
  }
}

}  // namespace marlin
