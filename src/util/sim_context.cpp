#include "util/sim_context.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "util/cli.hpp"
#include "util/cpuid.hpp"
#include "util/error.hpp"

namespace marlin {

SimContext::SimContext(unsigned n_threads)
    : n_threads_(resolve_threads(n_threads)) {}

ThreadPool* SimContext::pool() const {
  if (serial()) return nullptr;
  std::call_once(started_, [this] {
    owned_ = std::make_unique<ThreadPool>(n_threads_ - 1);
  });
  return owned_.get();
}

void SimContext::parallel_for(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t)>& fn) const {
  if (begin >= end) return;
  if (serial() || end - begin == 1 || ThreadPool::on_worker_thread()) {
    for (std::int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  pool()->parallel_for(begin, end, fn);
}

namespace {

/// A thread count under the `--threads` rules: a whole number >= 0,
/// 0 = auto. `what` names the flag or variable in the error.
std::int64_t parse_thread_count(const std::string& what,
                                const std::string& value) {
  const std::int64_t n = parse_int(what, value);
  if (n < 0) {
    throw Error(what + " must be >= 0 (0 = auto), got `" + value + "`");
  }
  return n;
}

}  // namespace

unsigned SimContext::resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const char* env = std::getenv("MARLIN_THREADS");
  if (env != nullptr && *env != '\0') {
    const std::int64_t v = parse_thread_count("MARLIN_THREADS", env);
    if (v > 0) return static_cast<unsigned>(v);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

const SimContext& SimContext::serial_context() {
  static const SimContext ctx(1);
  return ctx;
}

SimContext make_sim_context(CliArgs& args) {
  const std::int64_t threads = args.get_parsed(
      "threads", "0",
      "worker threads: 0 = MARLIN_THREADS env, then hardware concurrency; "
      "1 = bit-identical serial mode",
      [](const std::string& v) { return parse_thread_count("--threads", v); },
      "INT");
  // Applies the level while parsing, so one lookup both validates the
  // name and sets it (under --help a bad name leaves the level alone).
  (void)args.get_parsed(
      "simd", "",
      "SIMD dispatch level: scalar | avx2 | avx512 | auto (empty = "
      "MARLIN_SIMD env, then auto-detect; every level is bit-identical)",
      [](const std::string& name) {
        if (name == "auto") {
          simd::reset_level();
        } else if (!name.empty()) {
          simd::set_level(simd::level_by_name(name));
        }
        return name;
      });
  return SimContext(static_cast<unsigned>(threads));
}

}  // namespace marlin
