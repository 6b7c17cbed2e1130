#pragma once
// Error-checking helpers used across the library.
//
// MARLIN_CHECK is used for *user-facing argument validation*: it throws an
// Error carrying only its message, which the binaries print as one plain
// `<bin>: <message>` line. MARLIN_ASSERT guards internal invariants (also
// throws, so tests can observe violations instead of aborting the
// process); its message names the source location and the condition,
// which only matter to whoever fixes the bug.

#include <sstream>
#include <stdexcept>
#include <string>

namespace marlin {

/// Exception type thrown on any precondition or invariant violation.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] inline void throw_assert_failure(const char* expr,
                                              const char* file, int line) {
  std::ostringstream os;
  os << file << ":" << line << ": check `" << expr
     << "` failed: internal invariant violated";
  throw Error(os.str());
}
}  // namespace detail

}  // namespace marlin

#define MARLIN_CHECK(cond, msg)                                           \
  do {                                                                    \
    if (!(cond)) {                                                        \
      throw ::marlin::Error((std::ostringstream{} << msg).str());         \
    }                                                                     \
  } while (0)

#define MARLIN_ASSERT(cond)                                               \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::marlin::detail::throw_assert_failure(#cond, __FILE__, __LINE__);  \
    }                                                                     \
  } while (0)
