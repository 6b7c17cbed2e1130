#include "gpusim/pipeline.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace marlin::gpusim {

namespace {

// Deepest pipeline whose history lives on the stack and that may skip
// whole periods; deeper ones run the same loop without the skip.
constexpr int kMaxSkipDepth = 32;

/// Exponent of the lowest set bit of a finite c >= 0 (INT_MIN for 0).
/// c is a rounding tie in binade [2^e, 2^(e+1)), whose ulp is 2^(e-52),
/// exactly when this equals e - 53.
int lowest_bit_exponent(double c) {
  const auto bits = std::bit_cast<std::uint64_t>(c);
  const std::uint64_t frac = bits & ((std::uint64_t{1} << 52) - 1);
  const int biased = static_cast<int>(bits >> 52);
  if (biased == 0) {
    return frac == 0 ? INT_MIN : -1074 + std::countr_zero(frac);
  }
  return biased - 1075 + std::countr_zero(frac | (std::uint64_t{1} << 52));
}

}  // namespace

PipelineResult simulate_pipeline(const PipelineParams& p) {
  MARLIN_CHECK(p.depth >= 1, "pipeline depth must be >= 1");
  MARLIN_CHECK(p.num_tiles >= 0, "negative tile count");
  PipelineResult r;
  if (p.num_tiles == 0) return r;

  const int n = p.num_tiles;
  const int depth = p.depth;
  const double load = p.tile_load_s;
  const double latency = p.load_latency_s;
  const double compute = p.tile_compute_s;
  // compute_done / mem_free of the last 2P passes, indexed by the pass
  // count h (not the tile index i: a skip advances i but not h).
  const std::size_t ring =
      std::bit_ceil(2 * static_cast<std::size_t>(std::min(depth, n)));
  const std::size_t mask = ring - 1;
  std::array<double, 2 * kMaxSkipDepth> done_stack{};
  std::array<double, 2 * kMaxSkipDepth> free_hist{};
  std::vector<double> done_heap;
  double* compute_done = done_stack.data();
  if (ring > done_stack.size()) {
    done_heap.assign(ring, 0.0);
    compute_done = done_heap.data();
  }

  // Period skip (exactness argument in pipeline.hpp). It needs every value
  // to grow, so non-negative finite constants, and the stack history.
  bool skip = depth <= kMaxSkipDepth && load >= 0 && latency >= 0 &&
              compute >= 0 && std::isfinite(load + latency + compute);
  const int tie_load = lowest_bit_exponent(load);
  const int tie_latency = lowest_bit_exponent(latency);
  const int tie_compute = lowest_bit_exponent(compute);
  double lo = 0.0, hi = 0.0;  // binade of compute_free
  bool armed = false;         // one jump attempt per binade
  double shift = -1.0;        // K: compute_done[i] - compute_done[i-P]
  int streak = 0;             // consecutive tiles whose K matched

  double mem_free = 0.0;      // when the memory engine can start the next load
  double compute_free = 0.0;  // when the tensor cores finish the current tile

  std::size_t h = 0;
  for (int i = 0; i < n; ++i, ++h) {
    // Buffer slot for tile i frees once tile i-P finished computing.
    const double slot_free = (i >= depth) ? compute_done[(h - depth) & mask]
                                          : 0.0;
    const double load_start = std::max(mem_free, slot_free);
    mem_free = load_start + load;
    const double data_ready = mem_free + latency;

    const double compute_start = std::max(data_ready, compute_free);
    compute_free = compute_start + compute;
    compute_done[h & mask] = compute_free;

    if (!skip) continue;
    free_hist[h & mask] = mem_free;
    const double step = compute_free - slot_free;
    streak = step == shift ? streak + 1 : 1;
    shift = step;
    if (compute_free >= hi) {
      // compute_free (the largest value of the state) entered a new binade.
      const auto bits = std::bit_cast<std::uint64_t>(compute_free);
      const int biased = static_cast<int>(bits >> 52);
      if (biased >= 2046) {
        skip = false;  // no finite binade above
        continue;
      }
      armed = biased > 0;
      if (armed) {
        lo = std::bit_cast<double>(static_cast<std::uint64_t>(biased) << 52);
        hi = std::bit_cast<double>(static_cast<std::uint64_t>(biased + 1)
                                   << 52);
        const int tie = biased - 1023 - 53;
        armed = tie_load != tie && tie_latency != tie && tie_compute != tie;
      } else {
        hi = 0x1p-1022;  // zero or subnormal: wait for the normal range
      }
    }
    if (streak < depth || !(armed || shift == 0) || i + 1 < 2 * depth) {
      continue;
    }
    // The last P steps of compute_done matched K; check mem_free too.
    const double older_free = free_hist[(h - depth) & mask];
    if (mem_free - older_free != shift) continue;
    int periods = (n - 1 - i) / depth;
    if (shift != 0) {  // K == 0 is a fixed point: no binade needed
      if (std::min(older_free, compute_done[(h + 1 - 2 * depth) & mask]) <
          lo) {
        continue;  // the older state still reaches below the binade
      }
      armed = false;
      const double room = (hi - compute_free) / shift;
      if (room < periods) periods = room >= 1 ? static_cast<int>(room) : 0;
      while (periods > 0 && compute_free + periods * shift >= hi) {
        --periods;
      }
    }
    if (periods == 0) continue;
    // Advance whole periods and re-seat the history by the same shift.
    const double jump = periods * shift;
    i += periods * depth;
    mem_free += jump;
    compute_free += jump;
    for (int t = 0; t < 2 * depth; ++t) compute_done[(h - t) & mask] += jump;
    for (int t = 0; t < depth; ++t) free_hist[(h - t) & mask] += jump;
  }

  r.total_s = compute_free;
  const double steady = std::max(p.tile_load_s, p.tile_compute_s);
  r.ideal_s = p.tile_load_s + p.load_latency_s +
              static_cast<double>(n - 1) * steady + p.tile_compute_s;
  r.stall_s = std::max(0.0, r.total_s - r.ideal_s);
  r.stall_fraction = r.total_s > 0 ? r.stall_s / r.total_s : 0.0;
  return r;
}

}  // namespace marlin::gpusim
