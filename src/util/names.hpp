#pragma once
// Name lookup shared by every `*_by_name` parser and by CliArgs's
// unknown-flag check: names match case-insensitively, and a miss throws
// one message that lists the known names and, for a plausible typo,
// suggests the closest one.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace marlin {

/// Levenshtein distance, case-insensitive.
[[nodiscard]] std::size_t edit_distance(std::string_view a,
                                        std::string_view b);

/// "unknown <what> `<name>`; did you mean `<closest>`? known: a, b, ...".
/// The suggestion appears only when at most half of `name` differs from
/// the closest entry of `known` (ties go to the earlier entry).
[[nodiscard]] std::string unknown_name_message(
    std::string_view what, std::string_view name,
    const std::vector<std::string>& known);

/// Index of the entry of `known` equal to `name` ignoring case; throws
/// `Error(unknown_name_message(...))` when there is none.
[[nodiscard]] std::size_t find_name(std::string_view what,
                                    std::string_view name,
                                    const std::vector<std::string>& known);

/// The element of `all` whose `name_of(element)` matches `name` (see
/// find_name).
template <typename T, typename NameOf>
[[nodiscard]] T by_name(std::string_view what, std::string_view name,
                        const std::vector<T>& all, NameOf name_of) {
  std::vector<std::string> known;
  known.reserve(all.size());
  for (const T& t : all) known.emplace_back(name_of(t));
  return all[find_name(what, name, known)];
}

}  // namespace marlin
