#pragma once
// Runtime SIMD capability detection and level selection.
//
// The library ships scalar, AVX2 (+FMA +F16C) and AVX-512 (F/BW/VL/DQ)
// implementations of its hottest inner loops (see util/simd_ops.hpp) and
// picks one *at startup* — the binary itself is compiled for baseline
// x86-64, with the vector translation units carrying per-file ISA flags,
// so it still starts on machines without the extensions.
//
// Selection precedence (first match wins):
//   1. an explicit `set_level` call (the benches' `--simd` flag, tests);
//   2. the MARLIN_SIMD environment variable: scalar | avx2 | avx512 | auto;
//   3. auto-detection: the best level both the CPU and this build support.
//
// Every level is bit-identical by contract (no FMA contraction, no
// reassociated reductions — see docs/performance.md), so switching levels
// never changes results, only speed. Requesting a level the host cannot
// run throws instead of silently falling back.

#include <string>

namespace marlin::simd {

/// Dispatch tiers, ordered by capability. kAvx2 implies FMA and F16C;
/// kAvx512 implies the F/BW/VL/DQ subsets (and everything in kAvx2).
enum class Level : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

[[nodiscard]] const char* to_string(Level level);
/// Parses "scalar" / "avx2" / "avx512" (any case; see util/names.hpp).
[[nodiscard]] Level level_by_name(const std::string& name);

/// Best level this host can run: the CPU's capabilities clamped by what
/// this build compiled in (a build without AVX-512 support never reports
/// kAvx512). Probed once, then cached.
[[nodiscard]] Level max_supported_level();

/// Can this host run `level`? (kScalar is always supported.)
[[nodiscard]] bool supported(Level level);

/// The level the op tables dispatch on, resolved by the precedence above.
/// Throws if MARLIN_SIMD names an unknown or unsupported level.
[[nodiscard]] Level active_level();

/// Explicit override (wins over MARLIN_SIMD and auto-detection); throws
/// if `level` is unsupported on this host.
void set_level(Level level);

/// Drops the explicit override *and* the cached environment resolution,
/// so the next `active_level()` re-reads MARLIN_SIMD. For tests and flag
/// re-parsing.
void reset_level();

}  // namespace marlin::simd
