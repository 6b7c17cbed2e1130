#pragma once
// Command-line flags for the bench and example binaries.
//
// A binary declares a flag where it reads it: every getter takes a
// one-line help text and records the flag's name, default and help.
// After its last read the binary calls `finish()`, which prints the
// `--help` listing built from those records and exits 0 when asked, and
// otherwise rejects any given flag that was never read. `cli_main` is the
// one error boundary every bench and example `main` runs behind.
//
// Accepted forms: `--name=value`, `--name value` and a bare `--flag`
// (read as "true"); any other token is an error.
//
// `--help` wins over malformed values: while it is given, a getter whose
// value does not parse returns its fallback instead of throwing, so
// `finish()` can print the listing and exit 0.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace marlin {

/// `value` as a whole base-10 integer; throws `Error` "<what> expects an
/// integer, got `<value>`" when it is empty, starts with a blank, carries
/// trailing characters or is out of range. The one integer rule for
/// flags and environment variables alike.
[[nodiscard]] std::int64_t parse_int(const std::string& what,
                                     const std::string& value);

class CliArgs {
 public:
  /// Throws `Error` on a token that is not a flag.
  CliArgs(int argc, const char* const* argv);

  /// Whether the flag was given. A pure query: it declares nothing, so a
  /// flag only ever tested with `has` is still unknown to `finish()`.
  [[nodiscard]] bool has(const std::string& name) const;

  /// The getters declare `name` (first read wins) and return its value,
  /// or `fallback` when the flag is absent. The numeric getters throw
  /// `Error` naming the flag and its value when the value is empty, not a
  /// number, carries trailing characters or is out of range (`get_double`
  /// also rejects inf and nan); `get_bool` accepts true/false, 1/0 and
  /// yes/no, and a bare `--flag` is true.
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback,
                                       const std::string& help);
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback,
                                     const std::string& help);
  [[nodiscard]] double get_double(const std::string& name, double fallback,
                                  const std::string& help);
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback,
                              const std::string& help);
  /// `get_string` followed by `parse` (a `*_by_name` lookup or a range
  /// check, say): an `Error` from `parse` is the value error of this
  /// flag, so under `--help` the parsed fallback is returned instead.
  /// `type` labels the value in the listing.
  template <typename Parse>
  [[nodiscard]] auto get_parsed(const std::string& name,
                                const std::string& fallback,
                                const std::string& help, Parse parse,
                                const char* type = "STR")
      -> decltype(parse(fallback)) {
    const std::string value = get_typed(name, type, fallback, help);
    return parse_or(value, parse, [&] { return parse(fallback); });
  }

  /// "<program> — <summary>", then every declared flag in read order with
  /// its help and default, then `--help` itself.
  [[nodiscard]] std::string help(const std::string& summary) const;

  /// Ends the declarations. With `--help`, prints `help(summary)` to
  /// stdout and exits 0; otherwise throws `Error` naming the first given
  /// flag that was never read, with a did-you-mean suggestion. Reading a
  /// flag afterwards throws too, since `--help` could not have listed it.
  void finish(const std::string& summary);

 private:
  struct Flag {
    std::string name;
    std::string usage;  // "--name TYPE"
    std::string fallback;
    std::string help;
  };

  /// Declares `name` with the value label `type` and returns its raw
  /// value, or `fallback` when absent.
  [[nodiscard]] std::string get_typed(const std::string& name,
                                      const char* type,
                                      const std::string& fallback,
                                      const std::string& help);
  /// The flag's value (the last one given wins), or nullptr when absent.
  [[nodiscard]] const std::string* find(const std::string& name) const;
  /// `parse(value)`; under `--help` an `Error` from it yields `fallback()`.
  template <typename Parse, typename Fallback>
  [[nodiscard]] auto parse_or(const std::string& value, Parse parse,
                              Fallback fallback) const
      -> decltype(parse(value)) {
    if (!help_) return parse(value);
    try {
      return parse(value);
    } catch (const Error&) {
      return fallback();
    }
  }
  void declare(const std::string& name, const char* type,
               std::string fallback, const std::string& help);

  std::string program_;
  std::vector<std::pair<std::string, std::string>> given_;
  std::vector<Flag> declared_;
  bool help_ = false;  // `--help` was given
  bool finished_ = false;
};

/// Runs a bench or example body behind the one input boundary: builds the
/// CliArgs and calls `body`; an `Error` thrown by either prints
/// `<program>: <message>` as one stderr line and returns 2.
int cli_main(int argc, const char* const* argv, int (*body)(CliArgs&));

}  // namespace marlin
