#include "util/cpuid.hpp"

#include <atomic>
#include <cstdlib>

#include "util/error.hpp"
#include "util/names.hpp"

namespace marlin::simd {

namespace {

// Explicit set_level override and the cached MARLIN_SIMD/auto resolution;
// -1 = unset. Relaxed atomics: levels are plain ints and every thread
// resolving concurrently computes the same value.
std::atomic<int> g_override{-1};
std::atomic<int> g_resolved{-1};

Level probe_max_level() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  const bool avx2 = __builtin_cpu_supports("avx2") &&
                    __builtin_cpu_supports("fma") &&
                    __builtin_cpu_supports("f16c");
  const bool avx512 = avx2 && __builtin_cpu_supports("avx512f") &&
                      __builtin_cpu_supports("avx512bw") &&
                      __builtin_cpu_supports("avx512vl") &&
                      __builtin_cpu_supports("avx512dq");
#if defined(MARLIN_HAVE_AVX512_TU)
  if (avx512) return Level::kAvx512;
#endif
#if defined(MARLIN_HAVE_AVX2_TU)
  if (avx2) return Level::kAvx2;
#endif
  (void)avx512;
  (void)avx2;
#endif
  return Level::kScalar;
}

Level resolve_from_env() {
  const char* env = std::getenv("MARLIN_SIMD");
  if (env == nullptr || *env == '\0' || std::string(env) == "auto") {
    return max_supported_level();
  }
  const Level l = level_by_name(env);
  MARLIN_CHECK(supported(l), "MARLIN_SIMD=" << env
                                            << " is not supported on this "
                                               "host (max: "
                                            << to_string(max_supported_level())
                                            << ")");
  return l;
}

}  // namespace

const char* to_string(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "?";
}

Level level_by_name(const std::string& name) {
  return by_name("SIMD level", name,
                 std::vector<Level>{Level::kScalar, Level::kAvx2,
                                    Level::kAvx512},
                 [](Level l) { return to_string(l); });
}

Level max_supported_level() {
  static const Level max = probe_max_level();
  return max;
}

bool supported(Level level) {
  return static_cast<int>(level) <= static_cast<int>(max_supported_level());
}

Level active_level() {
  const int o = g_override.load(std::memory_order_relaxed);
  if (o >= 0) return static_cast<Level>(o);
  const int r = g_resolved.load(std::memory_order_relaxed);
  if (r >= 0) return static_cast<Level>(r);
  const Level l = resolve_from_env();
  g_resolved.store(static_cast<int>(l), std::memory_order_relaxed);
  return l;
}

void set_level(Level level) {
  MARLIN_CHECK(supported(level),
               "SIMD level " << to_string(level)
                             << " is not supported on this host (max: "
                             << to_string(max_supported_level()) << ")");
  g_override.store(static_cast<int>(level), std::memory_order_relaxed);
}

void reset_level() {
  g_override.store(-1, std::memory_order_relaxed);
  g_resolved.store(-1, std::memory_order_relaxed);
}

}  // namespace marlin::simd
