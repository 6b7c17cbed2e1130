#pragma once
// Thread-safe memo lookup shared by the step-model caches.

#include <mutex>

namespace marlin {

/// Returns `cache[key]`, filling a miss with `compute()`. The mutex is held
/// only around the lookup and the insert, never across `compute`, so
/// misses fill concurrently without lock nesting; computing one key twice
/// is benign because every cached value is deterministic.
template <typename Cache, typename Compute>
double memoised(std::mutex& mutex, Cache& cache,
                const typename Cache::key_type& key, Compute&& compute) {
  {
    const std::lock_guard lock(mutex);
    if (const auto it = cache.find(key); it != cache.end()) return it->second;
  }
  const double value = compute();
  const std::lock_guard lock(mutex);
  cache[key] = value;
  return value;
}

}  // namespace marlin
