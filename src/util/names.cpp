#include "util/names.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "util/error.hpp"

namespace marlin {

namespace {

bool same_letter(char a, char b) {
  return std::tolower(static_cast<unsigned char>(a)) ==
         std::tolower(static_cast<unsigned char>(b));
}

}  // namespace

std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t prev = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t cur = row[j];
      const std::size_t sub = same_letter(a[i - 1], b[j - 1]) ? 0 : 1;
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, prev + sub});
      prev = cur;
    }
  }
  return row[b.size()];
}

std::string unknown_name_message(std::string_view what, std::string_view name,
                                 const std::vector<std::string>& known) {
  const std::string* closest = nullptr;
  std::size_t best = name.size() / 2 + 1;
  std::ostringstream list;
  for (const auto& k : known) {
    if (&k != &known.front()) list << ", ";
    list << k;
    const std::size_t dist = edit_distance(k, name);
    if (dist < best) {
      best = dist;
      closest = &k;
    }
  }
  std::ostringstream os;
  os << "unknown " << what << " `" << name << "`; ";
  if (closest != nullptr) os << "did you mean `" << *closest << "`? ";
  os << "known: " << list.str();
  return os.str();
}

std::size_t find_name(std::string_view what, std::string_view name,
                      const std::vector<std::string>& known) {
  for (std::size_t i = 0; i < known.size(); ++i) {
    if (std::ranges::equal(known[i], name, same_letter)) return i;
  }
  throw Error(unknown_name_message(what, name, known));
}

}  // namespace marlin
