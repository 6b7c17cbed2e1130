// gpusim substrate: device catalog anchors, clock model, pipeline
// simulation, bank conflicts, warp utilisation model, roofline.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "gpusim/clock.hpp"
#include "gpusim/device.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/pipeline.hpp"
#include "gpusim/roofline.hpp"
#include "gpusim/smem_bank.hpp"
#include "gpusim/warp_exec.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace marlin::gpusim {
namespace {

TEST(Device, A10MatchesPaperFigure11Anchors) {
  const DeviceSpec d = a10();
  // Boost-clock ridge: 125 TF / 600 GB/s = 208.3 FLOP/B (paper Fig. 11).
  EXPECT_NEAR(d.flops_per_byte(d.boost_clock_ghz), 208.3, 0.5);
  // Base-clock peak 65.3 TF and ridge 108.8 FLOP/B.
  EXPECT_NEAR(d.tc_flops(d.base_clock_ghz) / 1e12, 65.3, 0.5);
  EXPECT_NEAR(d.flops_per_byte(d.base_clock_ghz), 108.8, 0.5);
}

TEST(Device, CatalogLookup) {
  EXPECT_EQ(device_by_name("a10").num_sms, 72);
  EXPECT_EQ(device_by_name("A100").num_sms, 108);
  EXPECT_EQ(device_by_name("rtx3090").num_sms, 82);
  EXPECT_EQ(device_by_name("RTXA6000").num_sms, 84);
  EXPECT_THROW(device_by_name("H100"), marlin::Error);
  EXPECT_EQ(all_devices().size(), 4u);
}

TEST(Device, UnknownNameSuggestsClosestSpelling) {
  try {
    device_by_name("a1000");
    FAIL() << "lookup should have thrown";
  } catch (const marlin::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("a1000"), std::string::npos);
    EXPECT_NE(what.find("did you mean `A100`?"), std::string::npos);
    EXPECT_NE(what.find("A10, RTX3090, RTXA6000, A100"), std::string::npos);
  }
  // Gibberish gets the catalog but no far-fetched suggestion.
  try {
    device_by_name("zzzzzzzzzzzz");
    FAIL() << "lookup should have thrown";
  } catch (const marlin::Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("did you mean"), std::string::npos);
    EXPECT_NE(what.find("known: A10"), std::string::npos);
  }
}

TEST(Device, GeForceHalfRateTensorCores) {
  // 3090 has more SMs than A10 but lower FP16+FP32-acc TC peak.
  EXPECT_LT(rtx3090().fp16_tc_tflops_boost, a10().fp16_tc_tflops_boost);
}

TEST(Clock, BoostAndLockedBase) {
  const DeviceSpec d = a10();
  ClockModel boost{ClockMode::kBoost};
  ClockModel base{ClockMode::kLockedBase};
  EXPECT_DOUBLE_EQ(boost.effective_clock_ghz(d, 1.0), d.boost_clock_ghz);
  EXPECT_DOUBLE_EQ(base.effective_clock_ghz(d, 1.0), d.base_clock_ghz);
}

TEST(Clock, ThermalDecaysTowardsBase) {
  const DeviceSpec d = a10();
  ClockModel thermal{ClockMode::kAutoThermal};
  const double short_burst = thermal.effective_clock_ghz(d, 1e-4);
  const double sustained = thermal.effective_clock_ghz(d, 1.0);
  EXPECT_DOUBLE_EQ(short_burst, d.boost_clock_ghz);
  EXPECT_LT(sustained, d.boost_clock_ghz);
  EXPECT_GT(sustained, d.base_clock_ghz * 0.99);
  // Monotone decay.
  double prev = d.boost_clock_ghz + 1;
  for (const double busy : {1e-4, 1e-3, 3e-3, 1e-2, 1e-1}) {
    const double c = thermal.effective_clock_ghz(d, busy);
    EXPECT_LE(c, prev);
    prev = c;
  }
}

TEST(MemoryModel, Eq1Holds) {
  const DeviceSpec d = a10();
  // Paper: at N_sm = 256, even batch 64 remains bound by weight loading.
  EXPECT_TRUE(a_loads_hidden_by_l2(d, 64, 64, 256));
  // Narrow tiles at large batch violate the bound.
  EXPECT_FALSE(a_loads_hidden_by_l2(d, 64, 64, 64));
}

TEST(Pipeline, ComputeBoundHidesLoads) {
  PipelineParams p;
  p.depth = 4;
  p.num_tiles = 1000;
  p.tile_load_s = 1e-6;
  p.load_latency_s = 5e-7;
  p.tile_compute_s = 2e-6;  // compute dominates
  const auto r = simulate_pipeline(p);
  EXPECT_LT(r.stall_fraction, 0.01);
  EXPECT_NEAR(r.total_s, 1000 * 2e-6, 0.05 * 1000 * 2e-6);
}

TEST(Pipeline, MemoryBoundApproachesStreamTime) {
  PipelineParams p;
  p.depth = 4;
  p.num_tiles = 1000;
  p.tile_load_s = 2e-6;
  p.load_latency_s = 5e-7;
  p.tile_compute_s = 1e-6;
  const auto r = simulate_pipeline(p);
  EXPECT_NEAR(r.total_s, 1000 * 2e-6, 0.05 * 1000 * 2e-6);
}

TEST(Pipeline, DepthOneSerialises) {
  PipelineParams p;
  p.depth = 1;
  p.num_tiles = 100;
  p.tile_load_s = 1e-6;
  p.load_latency_s = 1e-6;
  p.tile_compute_s = 1e-6;
  const auto r = simulate_pipeline(p);
  // With one buffer, load (incl. latency) and compute fully serialise.
  EXPECT_NEAR(r.total_s, 100 * 3e-6, 1e-6);
  EXPECT_GT(r.stall_fraction, 0.2);
}

TEST(Pipeline, MonotoneInDepth) {
  double prev = 1e9;
  for (const int depth : {1, 2, 4, 8}) {
    PipelineParams p;
    p.depth = depth;
    p.num_tiles = 500;
    p.tile_load_s = 1e-6;
    p.load_latency_s = 2e-6;
    p.tile_compute_s = 1.1e-6;
    const auto r = simulate_pipeline(p);
    EXPECT_LE(r.total_s, prev + 1e-12);
    prev = r.total_s;
  }
}

TEST(Pipeline, EmptyAndSingleTile) {
  PipelineParams p;
  p.depth = 4;
  p.num_tiles = 0;
  EXPECT_DOUBLE_EQ(simulate_pipeline(p).total_s, 0.0);
  p.num_tiles = 1;
  p.tile_load_s = 1e-6;
  p.load_latency_s = 5e-7;
  p.tile_compute_s = 2e-6;
  EXPECT_NEAR(simulate_pipeline(p).total_s, 3.5e-6, 1e-9);
}

/// The tile-by-tile loop simulate_pipeline skips periods of: every skip
/// must land on exactly the bits this loop computes.
double reference_pipeline_total(const PipelineParams& p) {
  const int n = p.num_tiles;
  std::vector<double> compute_done(static_cast<std::size_t>(n), 0.0);
  double mem_free = 0.0;
  double compute_free = 0.0;
  for (int i = 0; i < n; ++i) {
    const double slot_free =
        (i >= p.depth) ? compute_done[static_cast<std::size_t>(i - p.depth)]
                       : 0.0;
    const double load_start = std::max(mem_free, slot_free);
    mem_free = load_start + p.tile_load_s;
    const double data_ready = mem_free + p.load_latency_s;
    const double compute_start = std::max(data_ready, compute_free);
    compute_free = compute_start + p.tile_compute_s;
    compute_done[static_cast<std::size_t>(i)] = compute_free;
  }
  return compute_free;
}

TEST(Pipeline, FastForwardMatchesReferenceLoopBitForBit) {
  int cases = 0, mismatches = 0;
  const auto check = [&](const PipelineParams& p) {
    ++cases;
    const double got = simulate_pipeline(p).total_s;
    const double want = reference_pipeline_total(p);
    if (std::memcmp(&got, &want, sizeof got) != 0 && ++mismatches <= 5) {
      ADD_FAILURE() << std::hexfloat << "P=" << p.depth
                    << " tiles=" << p.num_tiles << " load=" << p.tile_load_s
                    << " latency=" << p.load_latency_s
                    << " compute=" << p.tile_compute_s << ": got " << got
                    << ", want " << want;
    }
  };

  // Seeded random sweep over the ranges KernelModel produces and beyond:
  // depth 1-40 crosses the 32-deep limit of the skip.
  Rng rng(17);
  const auto log_uniform = [&](double lo, double hi) {
    return lo * std::pow(hi / lo, rng.uniform());
  };
  for (int k = 0; k < 2000; ++k) {
    PipelineParams p;
    p.depth = 1 + static_cast<int>(rng.uniform_int(40));
    p.num_tiles = static_cast<int>(log_uniform(1, 300000));
    p.tile_load_s = log_uniform(1e-9, 1e-5);
    p.load_latency_s = rng.uniform_int(4) == 0 ? 0.0 : log_uniform(1e-9, 1e-5);
    p.tile_compute_s = rng.uniform_int(8) == 0 ? p.tile_load_s
                                               : log_uniform(1e-9, 1e-5);
    check(p);
  }

  // Rounding ties: with load == compute the memory and compute paths race
  // to the same grid point, and a latency half an ulp off the grid of
  // binade [2^e, 2^(e+1)) rounds to even there, so a shift by an odd
  // number of ulps would round it the other way.
  for (int e = -6; e <= -1; ++e) {
    for (int depth = 1; depth <= 8; ++depth) {
      for (int a = 4; a <= 7; ++a) {
        for (int s = -12; s <= -11; ++s) {
          PipelineParams p;
          p.depth = depth;
          p.num_tiles = 4096;
          p.tile_load_s = std::ldexp(1.0, e + s);
          p.tile_compute_s = p.tile_load_s;
          p.load_latency_s = std::ldexp(a, e - 12) + std::ldexp(1.0, e - 53);
          check(p);
        }
      }
    }
  }

  // Zero, dyadic and equal constants at every depth around the ring sizes.
  for (int depth = 1; depth <= 40; ++depth) {
    for (const int n : {0, 1, 2, 3, 63, 64, 65, 1000, 1 << 16}) {
      PipelineParams p;
      p.depth = depth;
      p.num_tiles = n;
      check(p);  // all constants zero: a fixed point from the first tile
      p.load_latency_s = 1e-6;
      check(p);
      p.tile_load_s = 0.25;
      p.load_latency_s = 0.5;
      p.tile_compute_s = 0.25;
      check(p);
      p.tile_load_s = 1e-6;
      p.load_latency_s = 0.0;
      p.tile_compute_s = 1e-6;
      check(p);
    }
  }

  // The KernelModel cap of 2^22 tiles, compute- and memory-bound.
  for (const int depth : {1, 4, 32, 33}) {
    PipelineParams p;
    p.depth = depth;
    p.num_tiles = 1 << 22;
    p.tile_load_s = 3e-9;
    p.load_latency_s = 5e-7;
    p.tile_compute_s = 2.9e-9;
    check(p);
    std::swap(p.tile_load_s, p.tile_compute_s);
    check(p);
  }
  EXPECT_EQ(mismatches, 0) << "of " << cases << " cases";
}

TEST(SmemBank, ConflictFreeBroadcastAndStride) {
  // 8 threads reading 8 different rows of a 32-byte-wide linear tile:
  // addresses 0, 32, 64, ... -> banks 0, 8, 16, 24, 0, 8, ... => conflicts.
  std::array<std::uint64_t, 8> linear{};
  for (int t = 0; t < 8; ++t) {
    linear[static_cast<std::size_t>(t)] = static_cast<std::uint64_t>(t) * 32;
  }
  EXPECT_GT(phase_conflict_transactions(linear), 1);

  // Same chunk for everyone broadcasts conflict-free.
  std::array<std::uint64_t, 8> bcast{};
  bcast.fill(128);
  EXPECT_EQ(phase_conflict_transactions(bcast), 1);

  // 8 consecutive 16-byte chunks cover distinct bank groups.
  std::array<std::uint64_t, 8> seq{};
  for (int t = 0; t < 8; ++t) {
    seq[static_cast<std::size_t>(t)] = static_cast<std::uint64_t>(t) * 16;
  }
  EXPECT_EQ(phase_conflict_transactions(seq), 1);
}

TEST(SmemBank, MisalignedAccessThrows) {
  std::array<std::uint64_t, 8> addr{};
  addr[0] = 8;  // not 16-byte aligned
  EXPECT_THROW((void)phase_conflict_transactions(addr), marlin::Error);
}

TEST(WarpExec, MarlinLayoutNearPeak) {
  const DeviceSpec d = a10();
  WarpExecParams p;  // 8 warps, 16x64 tile — MARLIN's choice
  EXPECT_GT(tensor_core_utilization(d, p), 0.85);
}

TEST(WarpExec, MonotoneInWarpsAndTileWidth) {
  const DeviceSpec d = a10();
  double prev = 0.0;
  for (const int warps : {1, 2, 4, 8, 16}) {
    WarpExecParams p;
    p.num_warps = warps;
    const double u = tensor_core_utilization(d, p);
    EXPECT_GE(u, prev - 1e-12);
    prev = u;
  }
  prev = 0.0;
  for (const int n : {8, 16, 32, 64}) {
    WarpExecParams p;
    p.num_warps = 4;
    p.warp_tile_n = n;
    const double u = tensor_core_utilization(d, p);
    EXPECT_GE(u, prev - 1e-12);
    prev = u;
  }
}

TEST(WarpExec, NarrowTileFewWarpsStalls) {
  const DeviceSpec d = a10();
  WarpExecParams narrow;
  narrow.num_warps = 4;
  narrow.warp_tile_n = 8;
  WarpExecParams wide;
  wide.num_warps = 8;
  wide.warp_tile_n = 64;
  EXPECT_LT(tensor_core_utilization(d, narrow),
            0.8 * tensor_core_utilization(d, wide));
}

TEST(Roofline, RidgeAndRegions) {
  const DeviceSpec d = a10();
  const double ridge = roofline_ridge_intensity(d, d.boost_clock_ghz);
  // Below the ridge: bandwidth-limited, linear in intensity.
  EXPECT_NEAR(roofline_attainable_flops(d, d.boost_clock_ghz, ridge / 2),
              d.tc_flops(d.boost_clock_ghz) / 2, 1e6);
  // Above: flat at peak.
  EXPECT_DOUBLE_EQ(roofline_attainable_flops(d, d.boost_clock_ghz, ridge * 8),
                   d.tc_flops(d.boost_clock_ghz));
}

}  // namespace
}  // namespace marlin::gpusim
