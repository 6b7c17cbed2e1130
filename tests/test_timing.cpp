// Timing models: the quantitative *shape* claims of paper §5.1 —
// near-ideal memory-bound speedup to batch 16-32, crossover near 64,
// comparator collapse, sparse uplift, locked-clock behaviour.

#include <gtest/gtest.h>

#include <array>
#include <ios>

#include "baselines/kernel_model.hpp"
#include "core/timing.hpp"
#include "gpusim/device.hpp"

namespace marlin::core {
namespace {

using baselines::make_kernel_model;
using gpusim::ClockMode;

// The paper's Figure 1 matrix: "72k x 18k", group 128.
MatmulProblem fig1_problem(index_t m) {
  return {m, 18432, 73728, 128, false};
}

double speedup(const std::string& kernel, index_t m,
               const gpusim::DeviceSpec& d, ClockMode mode) {
  const gpusim::ClockModel clock{mode};
  const auto fp16 = make_kernel_model("fp16");
  const auto k = make_kernel_model(kernel);
  return fp16->estimate(fig1_problem(m), d, clock).seconds /
         k->estimate(fig1_problem(m), d, clock).seconds;
}

TEST(MarlinTiming, NearIdealSpeedupAtSmallBatch) {
  // Paper: "close to the maximum possible 3.87x speedup up to batchsizes
  // around 16-32".
  const auto d = gpusim::a10();
  for (const index_t m : {1, 2, 4, 8, 16}) {
    const double s = speedup("marlin", m, d, ClockMode::kBoost);
    EXPECT_GT(s, 3.4) << "batch " << m;
    EXPECT_LT(s, 4.0) << "batch " << m;
  }
}

TEST(MarlinTiming, GradualDecayTowards1p5At128) {
  // Paper: "speedups gradually reduce, towards 1.5x at batch size 128".
  const auto d = gpusim::a10();
  const double s32 = speedup("marlin", 32, d, ClockMode::kBoost);
  const double s64 = speedup("marlin", 64, d, ClockMode::kBoost);
  const double s128 = speedup("marlin", 128, d, ClockMode::kBoost);
  EXPECT_GT(s32, s64);
  EXPECT_GT(s64, s128);
  EXPECT_GT(s128, 1.2);
  EXPECT_LT(s128, 2.2);
}

TEST(MarlinTiming, TracksIdealWithinTenPercent) {
  // MARLIN's curve must hug the ideal bound at every batch size (Fig. 1).
  const auto d = gpusim::a10();
  const gpusim::ClockModel clock{ClockMode::kBoost};
  const auto marlin = make_kernel_model("marlin");
  const auto ideal = make_kernel_model("ideal-int4");
  for (const index_t m : {1, 4, 16, 32, 64, 128}) {
    const double t_m = marlin->estimate(fig1_problem(m), d, clock).seconds;
    const double t_i = ideal->estimate(fig1_problem(m), d, clock).seconds;
    EXPECT_LT(t_m / t_i, 1.25) << "batch " << m;
    EXPECT_GE(t_m / t_i, 0.97) << "ideal must lower-bound marlin";
  }
}

TEST(MarlinTiming, MonotoneInBatch) {
  const auto d = gpusim::a10();
  const gpusim::ClockModel clock{ClockMode::kBoost};
  const auto marlin = make_kernel_model("marlin");
  double prev = 0.0;
  for (index_t m = 1; m <= 256; m *= 2) {
    const double t = marlin->estimate(fig1_problem(m), d, clock).seconds;
    EXPECT_GE(t, prev * 0.999) << "batch " << m;
    prev = t;
  }
}

TEST(MarlinTiming, ComparatorsCollapseWithBatch) {
  // Paper Fig. 1: comparators are competitive at batch 1 but fall below
  // 1x between batch 16 and 64.
  const auto d = gpusim::a10();
  for (const char* name :
       {"torch-int4", "exllamav2", "awq", "bitsandbytes"}) {
    const double s1 = speedup(name, 1, d, ClockMode::kBoost);
    const double s128 = speedup(name, 128, d, ClockMode::kBoost);
    EXPECT_GT(s1, 1.8) << name;
    EXPECT_LT(s128, 1.1) << name;
    EXPECT_LT(s128, s1 / 2.5) << name << " must collapse";
  }
  // And MARLIN dominates every comparator at every batch size.
  const gpusim::ClockModel clock{ClockMode::kBoost};
  const auto marlin = make_kernel_model("marlin");
  for (const index_t m : {1, 8, 32, 128}) {
    const double t_marlin =
        marlin->estimate(fig1_problem(m), d, clock).seconds;
    for (const auto& comp : baselines::open_source_comparators()) {
      EXPECT_LT(t_marlin, comp->estimate(fig1_problem(m), d, clock).seconds)
          << comp->name() << " at batch " << m;
    }
  }
}

TEST(MarlinTiming, LockedBaseClockStillNearIdeal) {
  // Paper Fig. 10: at locked base clock MARLIN remains near the (base
  // clock) ideal while comparators lose even more ground.
  const auto d = gpusim::a10();
  const gpusim::ClockModel clock{ClockMode::kLockedBase};
  const auto marlin = make_kernel_model("marlin");
  const auto ideal = make_kernel_model("ideal-int4");
  for (const index_t m : {1, 16, 32}) {
    const double t_m = marlin->estimate(fig1_problem(m), d, clock).seconds;
    const double t_i = ideal->estimate(fig1_problem(m), d, clock).seconds;
    EXPECT_LT(t_m / t_i, 1.25) << "batch " << m;
  }
  // Comparators: base clock hurts their relative speedup more than
  // MARLIN's (their CUDA-core dequant scales with the clock).
  for (const char* name : {"exllamav2", "awq"}) {
    const double boost16 = speedup(name, 16, d, ClockMode::kBoost);
    const double base16 = speedup(name, 16, d, ClockMode::kLockedBase);
    EXPECT_LT(base16, boost16) << name;
  }
}

TEST(MarlinTiming, PrefillWithinTenPercentOfFp16) {
  // Paper §5.1: "even in this case, MARLIN is nearly identical to an
  // uncompressed compute-bound matmul up to batch size 1024, with only
  // ~10% slow-down at even larger input shapes" (on A100).
  const auto d = gpusim::a100_80g();
  const gpusim::ClockModel clock{ClockMode::kAutoThermal};
  const auto marlin = make_kernel_model("marlin");
  const auto fp16 = make_kernel_model("fp16");
  for (const index_t m : {1024, 4096}) {
    MatmulProblem p{m, 8192, 8192, 128, false};
    const double t_m = marlin->estimate(p, d, clock).seconds;
    const double t_f = fp16->estimate(p, d, clock).seconds;
    EXPECT_LT(t_m / t_f, 1.15) << "batch " << m;
  }
}

TEST(SparseTiming, UpliftOverDenseGrowsWithBatch) {
  // Paper Fig. 12: up to ~65% additional speedup, realised in the
  // compute-bound regime (sparse tensor cores at 2x).
  const auto d = gpusim::a10();
  const gpusim::ClockModel clock{ClockMode::kBoost};
  const auto dense = make_kernel_model("marlin");
  const auto sparse = make_kernel_model("sparse-marlin");
  double uplift_small = 0, uplift_large = 0;
  {
    const auto p = fig1_problem(4);
    uplift_small = dense->estimate(p, d, clock).seconds /
                   sparse->estimate(p, d, clock).seconds;
  }
  {
    const auto p = fig1_problem(128);
    uplift_large = dense->estimate(p, d, clock).seconds /
                   sparse->estimate(p, d, clock).seconds;
  }
  EXPECT_GT(uplift_small, 1.1);  // memory side: 0.75x bytes => ~1.33x
  EXPECT_LT(uplift_small, 1.5);
  EXPECT_GT(uplift_large, 1.5);  // compute side: ~2x
  EXPECT_GT(uplift_large, uplift_small);
}

TEST(SparseTiming, SparseBeatsDenseEverywhere) {
  const auto d = gpusim::a10();
  const gpusim::ClockModel clock{ClockMode::kBoost};
  const auto dense = make_kernel_model("marlin");
  const auto sparse = make_kernel_model("sparse-marlin");
  for (index_t m = 1; m <= 512; m *= 4) {
    const auto p = fig1_problem(m);
    EXPECT_LT(sparse->estimate(p, d, clock).seconds,
              dense->estimate(p, d, clock).seconds)
        << "batch " << m;
  }
}

TEST(Timing, Eq1ViolationMakesNarrowTilesSlower) {
  // At batch 64, N_sm = 64 violates Eq. (1) (A re-reads exceed L2 budget);
  // the wide 256 tile must win.
  const auto d = gpusim::a10();
  const gpusim::ClockModel clock{ClockMode::kBoost};
  const auto p = fig1_problem(64);
  KernelConfig narrow;
  narrow.n_sm_tile = 64;
  narrow.num_warps = 4;
  KernelConfig wide;
  wide.n_sm_tile = 256;
  const double t_narrow = marlin_estimate(p, narrow, d, clock).seconds;
  const double t_wide = marlin_estimate(p, wide, d, clock).seconds;
  EXPECT_LT(t_wide, t_narrow);
}

TEST(Timing, SmallerGpusGetBiggerRelativeSpeedupsOnRealLayers) {
  // Paper Fig. 9: better speedups on 3090 than on A100 for the same
  // (small) layer shapes — overheads weigh more on the faster part.
  MatmulProblem layer{16, 4096, 4096, 128, false};
  const gpusim::ClockModel clock{ClockMode::kBoost};
  const auto fp16 = make_kernel_model("fp16");
  const auto marlin = make_kernel_model("marlin");
  auto sp = [&](const gpusim::DeviceSpec& d) {
    return fp16->estimate(layer, d, clock).seconds /
           marlin->estimate(layer, d, clock).seconds;
  };
  EXPECT_GT(sp(gpusim::rtx3090()), sp(gpusim::a100_80g()));
}

TEST(Timing, ThermalThrottleCapsLongKernels) {
  // Paper Fig. 11: long compute-heavy kernels drop towards the base-clock
  // roof.
  const auto d = gpusim::a10();
  const gpusim::ClockModel clock{ClockMode::kAutoThermal};
  MatmulProblem big{4096, 32768, 32768, 128, false};
  const auto est = core::marlin_estimate_auto(big, d, clock);
  EXPECT_LT(est.effective_clock_ghz, d.boost_clock_ghz * 0.75);
  EXPECT_GE(est.effective_clock_ghz, d.base_clock_ghz * 0.99);
}

TEST(Timing, EstimateTrafficConsistent) {
  const auto d = gpusim::a10();
  const gpusim::ClockModel clock{ClockMode::kBoost};
  const auto p = fig1_problem(16);
  const auto est = core::marlin_estimate_auto(p, d, clock);
  // Weight bytes dominate GMEM reads; intensity must exceed 2/(bytes per
  // weight) * ... sanity: intensity in (10, 300) for batch 16.
  EXPECT_GT(est.arithmetic_intensity(), 10.0);
  EXPECT_LT(est.arithmetic_intensity(), 300.0);
  EXPECT_GT(est.achieved_tflops(), 1.0);
}

// Estimates recorded before the thermal loop learnt to stop at its clock
// fixed point (and before the allocation-free column depth): every field
// must stay bit-identical. Values are {seconds, effective_clock_ghz,
// mem_s, l2_s, compute_s, dequant_s, reduce_s, pipeline_fill_s,
// launch_s} for group-128 INT4 problems (FP16 for "fp16").
struct PinnedEstimate {
  const char* kernel;
  const char* device;
  ClockMode mode;
  index_t m, k, n;
  std::array<double, 9> values;
};

const PinnedEstimate kPinnedEstimates[] = {
    {"fp16", "a10", ClockMode::kBoost, 1, 18432, 73728,
     {0x1.42de54f1cd38dp-8, 0x1.b1eb851eb851fp+0, 0x1.42b46386bb72p-8,
      0x0p+0, 0x1.7ffdba710d387p-12, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a10", ClockMode::kLockedBase, 1, 18432, 73728,
     {0x1.42de54f1cd38dp-8, 0x1.c51eb851eb852p-1, 0x1.42b46386bb72p-8,
      0x0p+0, 0x1.6fb8669bfd795p-11, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a10", ClockMode::kAutoThermal, 1, 18432, 73728,
     {0x1.42de54f1cd38dp-8, 0x1.b1eb851eb851fp+0, 0x1.42b46386bb72p-8,
      0x0p+0, 0x1.7ffdba710d387p-12, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a10", ClockMode::kBoost, 16, 18432, 73728,
     {0x1.43325d20e944bp-8, 0x1.b1eb851eb851fp+0, 0x1.43086bb5d77dep-8,
      0x0p+0, 0x1.7ffdba710d387p-12, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a10", ClockMode::kLockedBase, 16, 18432, 73728,
     {0x1.43325d20e944bp-8, 0x1.c51eb851eb852p-1, 0x1.43086bb5d77dep-8,
      0x0p+0, 0x1.6fb8669bfd795p-11, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a10", ClockMode::kAutoThermal, 16, 18432, 73728,
     {0x1.43325d20e944bp-8, 0x1.b1eb851eb851fp+0, 0x1.43086bb5d77dep-8,
      0x0p+0, 0x1.7ffdba710d387p-12, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a10", ClockMode::kBoost, 128, 4096, 11008,
     {0x1.6a88cbf7cfe1p-13, 0x1.b1eb851eb851fp+0, 0x1.654a9e959706cp-13,
      0x0p+0, 0x1.555350647d878p-13, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a10", ClockMode::kLockedBase, 128, 4096, 11008,
     {0x1.497be3ad8bf56p-12, 0x1.c51eb851eb852p-1, 0x1.654a9e959706cp-13,
      0x0p+0, 0x1.46dcccfc6f884p-12, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a10", ClockMode::kAutoThermal, 128, 4096, 11008,
     {0x1.6a88cbf7cfe1p-13, 0x1.b1eb851eb851fp+0, 0x1.654a9e959706cp-13,
      0x0p+0, 0x1.555350647d878p-13, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a10", ClockMode::kBoost, 512, 8192, 28672,
     {0x1.15a79427c98bbp-9, 0x1.b1eb851eb851fp+0, 0x1.e20842f38fa26p-11,
      0x0p+0, 0x1.1553b151a5fe1p-9, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a10", ClockMode::kLockedBase, 512, 8192, 28672,
     {0x1.09bd57f82c658p-8, 0x1.c51eb851eb852p-1, 0x1.e20842f38fa26p-11,
      0x0p+0, 0x1.0993668d1a9ebp-8, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a10", ClockMode::kAutoThermal, 512, 8192, 28672,
     {0x1.178f249b05455p-9, 0x1.ae985665741d4p+0, 0x1.e20842f38fa26p-11,
      0x0p+0, 0x1.173b41c4e1b7bp-9, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a10", ClockMode::kBoost, 4096, 18432, 73728,
     {0x1.80005987be54ep-4, 0x1.b1eb851eb851fp+0, 0x1.9c511dc3a41dfp-8,
      0x0p+0, 0x1.7ffdba710d387p-4, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a10", ClockMode::kLockedBase, 4096, 18432, 73728,
     {0x1.6fb9b62756078p-3, 0x1.c51eb851eb852p-1, 0x1.9c511dc3a41dfp-8,
      0x0p+0, 0x1.6fb8669bfd795p-3, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a10", ClockMode::kAutoThermal, 4096, 18432, 73728,
     {0x1.569423df22e8ep-3, 0x1.d8448620d1322p-1, 0x1.9c511dc3a41dfp-8,
      0x0p+0, 0x1.5692d453ca5abp-3, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a100", ClockMode::kBoost, 1, 18432, 73728,
     {0x1.7c7e7bdb1f784p-10, 0x1.68f5c28f5c28fp+0, 0x1.7bd6b62ed85dp-10,
      0x0p+0, 0x1.5a2556385efe9p-13, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a100", ClockMode::kLockedBase, 1, 18432, 73728,
     {0x1.7c7e7bdb1f784p-10, 0x1.4666666666666p+0, 0x1.7bd6b62ed85dp-10,
      0x0p+0, 0x1.7ecbece6ffa4p-13, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a100", ClockMode::kAutoThermal, 1, 18432, 73728,
     {0x1.7c7e7bdb1f784p-10, 0x1.68f5c28f5c28fp+0, 0x1.7bd6b62ed85dp-10,
      0x0p+0, 0x1.5a2556385efe9p-13, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a100", ClockMode::kBoost, 16, 18432, 73728,
     {0x1.7ce164b84d299p-10, 0x1.68f5c28f5c28fp+0, 0x1.7c399f0c060e5p-10,
      0x0p+0, 0x1.5a2556385efe9p-13, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a100", ClockMode::kLockedBase, 16, 18432, 73728,
     {0x1.7ce164b84d299p-10, 0x1.4666666666666p+0, 0x1.7c399f0c060e5p-10,
      0x0p+0, 0x1.7ecbece6ffa4p-13, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a100", ClockMode::kAutoThermal, 16, 18432, 73728,
     {0x1.7ce164b84d299p-10, 0x1.68f5c28f5c28fp+0, 0x1.7c399f0c060e5p-10,
      0x0p+0, 0x1.5a2556385efe9p-13, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a100", ClockMode::kBoost, 128, 4096, 11008,
     {0x1.b985458228d3p-15, 0x1.68f5c28f5c28fp+0, 0x1.a48c8ff9456a1p-15,
      0x0p+0, 0x1.46ad98a862147p-15, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a100", ClockMode::kLockedBase, 128, 4096, 11008,
     {0x1.b985458228d3p-15, 0x1.4666666666666p+0, 0x1.a48c8ff9456a1p-15,
      0x0p+0, 0x1.69447ea8242eap-15, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a100", ClockMode::kAutoThermal, 128, 4096, 11008,
     {0x1.b985458228d3p-15, 0x1.68f5c28f5c28fp+0, 0x1.a48c8ff9456a1p-15,
      0x0p+0, 0x1.46ad98a862147p-15, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a100", ClockMode::kBoost, 512, 8192, 28672,
     {0x1.ced6a8f90cdf5p-11, 0x1.68f5c28f5c28fp+0, 0x1.1baffd3794b07p-12,
      0x0p+0, 0x1.cd871da07ea8cp-11, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a100", ClockMode::kLockedBase, 512, 8192, 28672,
     {0x1.ffb4c73738669p-11, 0x1.4666666666666p+0, 0x1.1baffd3794b07p-12,
      0x0p+0, 0x1.fe653bdeaa3p-11, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a100", ClockMode::kAutoThermal, 512, 8192, 28672,
     {0x1.ced6a8f90cdf5p-11, 0x1.68f5c28f5c28fp+0, 0x1.1baffd3794b07p-12,
      0x0p+0, 0x1.cd871da07ea8cp-11, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a100", ClockMode::kBoost, 4096, 18432, 73728,
     {0x1.344e7ef796d39p-5, 0x1.68f5c28f5c28fp+0, 0x1.e5510a0c9277ep-10,
      0x0p+0, 0x1.344940ca349abp-5, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a100", ClockMode::kLockedBase, 4096, 18432, 73728,
     {0x1.54f2dd2b1de6fp-5, 0x1.4666666666666p+0, 0x1.e5510a0c9277ep-10,
      0x0p+0, 0x1.54ed9efdbbae1p-5, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"fp16", "a100", ClockMode::kAutoThermal, 4096, 18432, 73728,
     {0x1.4e74c58494dddp-5, 0x1.4c4df8fa9ef82p+0, 0x1.e5510a0c9277ep-10,
      0x0p+0, 0x1.4e6f875732a4fp-5, 0x0p+0,
      0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a10", ClockMode::kBoost, 1, 18432, 73728,
     {0x1.4db05300aa536p-10, 0x1.b1eb851eb851fp+0, 0x1.4cdaa84199854p-10,
      0x1.d8f3a2242d317p-11, 0x1.9552ef775510ep-12, 0x0p+0,
      0x0p+0, 0x1.c8ee7e139f3cdp-20, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a10", ClockMode::kLockedBase, 1, 18432, 73728,
     {0x1.4db57a05e0fecp-10, 0x1.c51eb851eb852p-1, 0x1.4cdaa84199854p-10,
      0x1.d8f3a2242d317p-11, 0x1.8426336bc471dp-11, 0x0p+0,
      0x0p+0, 0x1.c8ee7e139f3cdp-20, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a10", ClockMode::kAutoThermal, 1, 18432, 73728,
     {0x1.4db05300aa536p-10, 0x1.b1eb851eb851fp+0, 0x1.4cdaa84199854p-10,
      0x1.d8f3a2242d317p-11, 0x1.9552ef775510ep-12, 0x0p+0,
      0x0p+0, 0x1.c8ee7e139f3cdp-20, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a10", ClockMode::kBoost, 16, 18432, 73728,
     {0x1.4f0073bd1a83dp-10, 0x1.b1eb851eb851fp+0, 0x1.4e2ac8fe09b4cp-10,
      0x1.d8f3a2242d317p-11, 0x1.9552ef775510ep-12, 0x0p+0,
      0x0p+0, 0x1.ca1945d7912e2p-20, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a10", ClockMode::kLockedBase, 16, 18432, 73728,
     {0x1.4f059ac2512f3p-10, 0x1.c51eb851eb852p-1, 0x1.4e2ac8fe09b4cp-10,
      0x1.d8f3a2242d317p-11, 0x1.8426336bc471dp-11, 0x0p+0,
      0x0p+0, 0x1.ca1945d7912e2p-20, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a10", ClockMode::kAutoThermal, 16, 18432, 73728,
     {0x1.4f0073bd1a83dp-10, 0x1.b1eb851eb851fp+0, 0x1.4e2ac8fe09b4cp-10,
      0x1.d8f3a2242d317p-11, 0x1.9552ef775510ep-12, 0x0p+0,
      0x0p+0, 0x1.ca1945d7912e2p-20, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a10", ClockMode::kBoost, 128, 4096, 11008,
     {0x1.c4a83bc3c8fabp-14, 0x1.b1eb851eb851fp+0, 0x1.905f98f700c4dp-14,
      0x1.76f35d7782d8p-14, 0x1.aea81e6eca61fp-14, 0x0p+0,
      0x1.9866faccd7003p-20, 0x1.9f7bcb3c229e6p-19, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a10", ClockMode::kLockedBase, 128, 4096, 11008,
     {0x1.a71844ece76bcp-13, 0x1.c51eb851eb852p-1, 0x1.372b9e100c41cp-13,
      0x1.372b9e100c41cp-13, 0x1.9c6896a280b8fp-13, 0x0p+0,
      0x1.958718eef2a2bp-20, 0x1.54db2edf4f5ep-19, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a10", ClockMode::kAutoThermal, 128, 4096, 11008,
     {0x1.c4a83bc3c8fabp-14, 0x1.b1eb851eb851fp+0, 0x1.905f98f700c4dp-14,
      0x1.76f35d7782d8p-14, 0x1.aea81e6eca61fp-14, 0x0p+0,
      0x1.9866faccd7003p-20, 0x1.9f7bcb3c229e6p-19, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a10", ClockMode::kBoost, 512, 8192, 28672,
     {0x1.18ed042f6e586p-9, 0x1.b1eb851eb851fp+0, 0x1.e7fcbb86d5955p-10,
      0x1.e7fcbb86d5955p-10, 0x1.183e579181d0bp-9, 0x0p+0,
      0x1.9866faccd7003p-20, 0x1.8a36ff862e64ep-19, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a10", ClockMode::kLockedBase, 512, 8192, 28672,
     {0x1.0cb3e6ffd61a8p-8, 0x1.c51eb851eb852p-1, 0x1.94faa62f3d20ep-9,
      0x1.94faa62f3d20ep-9, 0x1.0c5e698d82d2bp-8, 0x0p+0,
      0x1.958718eef2a2bp-20, 0x1.54db2edf4f5ep-19, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a10", ClockMode::kAutoThermal, 512, 8192, 28672,
     {0x1.1b3781f6eccc6p-9, 0x1.ae66c78310355p+0, 0x1.e7fcbb86d5955p-10,
      0x1.e7fcbb86d5955p-10, 0x1.1a88d559004c9p-9, 0x0p+0,
      0x1.9866faccd7003p-20, 0x1.8a36ff862e64ep-19, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a10", ClockMode::kBoost, 4096, 18432, 73728,
     {0x1.9556cc754dcb3p-4, 0x1.b1eb851eb851fp+0, 0x1.60e50cacb761ep-4,
      0x1.60e50cacb761ep-4, 0x1.9552ef775510ep-4, 0x0p+0,
      0x0p+0, 0x1.8a36ff862e64ep-19, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a10", ClockMode::kLockedBase, 4096, 18432, 73728,
     {0x1.84281493d1662p-3, 0x1.c51eb851eb852p-1, 0x1.24ddc1f0fc7a2p-3,
      0x1.24ddc1f0fc7a2p-3, 0x1.8426336bc471dp-3, 0x0p+0,
      0x0p+0, 0x1.54db2edf4f5ep-19, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a10", ClockMode::kAutoThermal, 4096, 18432, 73728,
     {0x1.6ad812e9a9974p-3, 0x1.e4bb1f53fd41bp-1, 0x1.24ddc1f0fc7a2p-3,
      0x1.24ddc1f0fc7a2p-3, 0x1.6ad631c19ef5cp-3, 0x0p+0,
      0x0p+0, 0x1.54db2edf4f5ep-19, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a100", ClockMode::kBoost, 1, 18432, 73728,
     {0x1.8d0bce9ec4e6fp-12, 0x1.68f5c28f5c28fp+0, 0x1.881d666f39144p-12,
      0x1.0b664ce7294e2p-12, 0x1.44c760b34fa62p-13, 0x0p+0,
      0x1.9331316aa916cp-20, 0x1.a6789e953cd3ep-20, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a100", ClockMode::kLockedBase, 1, 18432, 73728,
     {0x1.8d0eac3cfcb23p-12, 0x1.4666666666666p+0, 0x1.881d666f39144p-12,
      0x1.0b664ce7294e2p-12, 0x1.672acb50d6939p-13, 0x0p+0,
      0x1.9331316aa916cp-20, 0x1.a6789e953cd3ep-20, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a100", ClockMode::kAutoThermal, 1, 18432, 73728,
     {0x1.8d0bce9ec4e6fp-12, 0x1.68f5c28f5c28fp+0, 0x1.881d666f39144p-12,
      0x1.0b664ce7294e2p-12, 0x1.44c760b34fa62p-13, 0x0p+0,
      0x1.9331316aa916cp-20, 0x1.a6789e953cd3ep-20, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a100", ClockMode::kBoost, 16, 18432, 73728,
     {0x1.8e9772137bab9p-12, 0x1.68f5c28f5c28fp+0, 0x1.89a909e3efd99p-12,
      0x1.0b664ce7294e2p-12, 0x1.44c760b34fa62p-13, 0x0p+0,
      0x1.9331316aa916cp-20, 0x1.a78060e30c021p-20, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a100", ClockMode::kLockedBase, 16, 18432, 73728,
     {0x1.8e9a4fb1b376dp-12, 0x1.4666666666666p+0, 0x1.89a909e3efd99p-12,
      0x1.0b664ce7294e2p-12, 0x1.672acb50d6939p-13, 0x0p+0,
      0x1.9331316aa916cp-20, 0x1.a78060e30c021p-20, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a100", ClockMode::kAutoThermal, 16, 18432, 73728,
     {0x1.8e9772137bab9p-12, 0x1.68f5c28f5c28fp+0, 0x1.89a909e3efd99p-12,
      0x1.0b664ce7294e2p-12, 0x1.44c760b34fa62p-13, 0x0p+0,
      0x1.9331316aa916cp-20, 0x1.a78060e30c021p-20, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a100", ClockMode::kBoost, 128, 4096, 11008,
     {0x1.827d4ce180a51p-15, 0x1.68f5c28f5c28fp+0, 0x1.19368619a222p-15,
      0x1.19368619a222p-15, 0x1.5913d6be84a09p-15, 0x0p+0,
      0x1.94cf2077798b6p-20, 0x1.00fa5e2691becp-19, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a100", ClockMode::kLockedBase, 128, 4096, 11008,
     {0x1.a706ee28e001ap-15, 0x1.4666666666666p+0, 0x1.19368619a222p-15,
      0x1.19368619a222p-15, 0x1.7d9d7805e3fccp-15, 0x0p+0,
      0x1.94cf2077798b6p-20, 0x1.00fa5e2691becp-19, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a100", ClockMode::kAutoThermal, 128, 4096, 11008,
     {0x1.827d4ce180a51p-15, 0x1.68f5c28f5c28fp+0, 0x1.19368619a222p-15,
      0x1.19368619a222p-15, 0x1.5913d6be84a09p-15, 0x0p+0,
      0x1.94cf2077798b6p-20, 0x1.00fa5e2691becp-19, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a100", ClockMode::kBoost, 512, 8192, 28672,
     {0x1.c3b24b1a23d2dp-11, 0x1.68f5c28f5c28fp+0, 0x1.6dfd8ca5203p-11,
      0x1.6dfd8ca5203p-11, 0x1.c11bb3b7f423cp-11, 0x0p+0,
      0x1.94cf2077798b6p-20, 0x1.00fa5e2691becp-19, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a100", ClockMode::kLockedBase, 512, 8192, 28672,
     {0x1.f33fc487f8656p-11, 0x1.4666666666666p+0, 0x1.6dfd8ca5203p-11,
      0x1.6dfd8ca5203p-11, 0x1.f0a92d25c8b8p-11, 0x0p+0,
      0x1.94cf2077798b6p-20, 0x1.00fa5e2691becp-19, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a100", ClockMode::kAutoThermal, 512, 8192, 28672,
     {0x1.c3b24b1a23d2dp-11, 0x1.68f5c28f5c28fp+0, 0x1.6dfd8ca5203p-11,
      0x1.6dfd8ca5203p-11, 0x1.c11bb3b7f423cp-11, 0x0p+0,
      0x1.94cf2077798b6p-20, 0x1.00fa5e2691becp-19, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a100", ClockMode::kBoost, 4096, 18432, 73728,
     {0x1.44d1bb10d8492p-5, 0x1.68f5c28f5c28fp+0, 0x1.08abc98189896p-5,
      0x1.08abc98189896p-5, 0x1.44c760b34fa62p-5, 0x0p+0,
      0x1.94cf2077798b6p-20, 0x1.00fa5e2691becp-19, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a100", ClockMode::kLockedBase, 4096, 18432, 73728,
     {0x1.673525ae609cfp-5, 0x1.4666666666666p+0, 0x1.08abc98189896p-5,
      0x1.08abc98189896p-5, 0x1.672acb50d6939p-5, 0x0p+0,
      0x1.94cf2077798b6p-20, 0x1.00fa5e2691becp-19, 0x1.4f8b588e368f1p-19}},
    {"marlin", "a100", ClockMode::kAutoThermal, 4096, 18432, 73728,
     {0x1.60a9f5ade2e44p-5, 0x1.4c75025dcf0a4p+0, 0x1.08abc98189896p-5,
      0x1.08abc98189896p-5, 0x1.609f9b505d5cp-5, 0x0p+0,
      0x1.94cf2077798b6p-20, 0x1.00fa5e2691becp-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a10", ClockMode::kBoost, 1, 18432, 73728,
     {0x1.fa0941509a141p-11, 0x1.b1eb851eb851fp+0, 0x1.f85debd27863p-11,
      0x1.2a52c8bc3c03ap-11, 0x1.9552ef775510ep-13, 0x0p+0,
      0x0p+0, 0x1.30b195f4dd564p-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a10", ClockMode::kLockedBase, 1, 18432, 73728,
     {0x1.fa138f5b076aep-11, 0x1.c51eb851eb852p-1, 0x1.f85debd27863p-11,
      0x1.2a52c8bc3c03ap-11, 0x1.8426336bc471dp-12, 0x0p+0,
      0x0p+0, 0x1.30b195f4dd564p-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a10", ClockMode::kAutoThermal, 1, 18432, 73728,
     {0x1.fa0941509a141p-11, 0x1.b1eb851eb851fp+0, 0x1.f85debd27863p-11,
      0x1.2a52c8bc3c03ap-11, 0x1.9552ef775510ep-13, 0x0p+0,
      0x0p+0, 0x1.30b195f4dd564p-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a10", ClockMode::kBoost, 16, 18432, 73728,
     {0x1.fca982c97a8b1p-11, 0x1.b1eb851eb851fp+0, 0x1.fafe2d4b58c2p-11,
      0x1.2a52c8bc3c03ap-11, 0x1.9552ef775510ep-13, 0x0p+0,
      0x0p+0, 0x1.31dc5db8cf47ap-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a10", ClockMode::kLockedBase, 16, 18432, 73728,
     {0x1.fcb3d0d3e7e1ep-11, 0x1.c51eb851eb852p-1, 0x1.fafe2d4b58c2p-11,
      0x1.2a52c8bc3c03ap-11, 0x1.8426336bc471dp-12, 0x0p+0,
      0x0p+0, 0x1.31dc5db8cf47ap-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a10", ClockMode::kAutoThermal, 16, 18432, 73728,
     {0x1.fca982c97a8b1p-11, 0x1.b1eb851eb851fp+0, 0x1.fafe2d4b58c2p-11,
      0x1.2a52c8bc3c03ap-11, 0x1.9552ef775510ep-13, 0x0p+0,
      0x0p+0, 0x1.31dc5db8cf47ap-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a10", ClockMode::kBoost, 128, 4096, 11008,
     {0x1.63a16d91455b6p-14, 0x1.b1eb851eb851fp+0, 0x1.4d57a5a35b51fp-14,
      0x1.bb8b366b1de94p-15, 0x1.b178b1df9e876p-15, 0x0p+0,
      0x1.9e26be889fbb2p-20, 0x1.3d54406295799p-18, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a10", ClockMode::kLockedBase, 128, 4096, 11008,
     {0x1.b20a6c7e795b4p-14, 0x1.c51eb851eb852p-1, 0x1.5806e1a270229p-14,
      0x1.5806e1a270229p-14, 0x1.9c6896a280b8fp-14, 0x0p+0,
      0x1.9866faccd7003p-20, 0x1.70580eb9271bcp-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a10", ClockMode::kAutoThermal, 128, 4096, 11008,
     {0x1.63a16d91455b6p-14, 0x1.b1eb851eb851fp+0, 0x1.4d57a5a35b51fp-14,
      0x1.bb8b366b1de94p-15, 0x1.b178b1df9e876p-15, 0x0p+0,
      0x1.9e26be889fbb2p-20, 0x1.3d54406295799p-18, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a10", ClockMode::kBoost, 512, 8192, 28672,
     {0x1.722184d6d4b2ep-10, 0x1.b1eb851eb851fp+0, 0x1.70bce857f61eep-10,
      0x1.1ec161000ea9ap-10, 0x1.183e579181d0bp-10, 0x0p+0,
      0x1.9e26be889fbb2p-20, 0x1.154b6a4789d44p-18, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a10", ClockMode::kLockedBase, 512, 8192, 28672,
     {0x1.0d0b783c62865p-9, 0x1.c51eb851eb852p-1, 0x1.bfbda96be0ffdp-10,
      0x1.bfbda96be0ffdp-10, 0x1.0c5e698d82d2bp-9, 0x0p+0,
      0x1.9866faccd7003p-20, 0x1.70580eb9271bcp-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a10", ClockMode::kAutoThermal, 512, 8192, 28672,
     {0x1.722184d6d4b2ep-10, 0x1.b1eb851eb851fp+0, 0x1.70bce857f61eep-10,
      0x1.1ec161000ea9ap-10, 0x1.183e579181d0bp-10, 0x0p+0,
      0x1.9e26be889fbb2p-20, 0x1.154b6a4789d44p-18, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a10", ClockMode::kBoost, 4096, 18432, 73728,
     {0x1.01b6a6e58433dp-4, 0x1.b1eb851eb851fp+0, 0x1.01b2b29a4692cp-4,
      0x1.9ebe0456dcccdp-5, 0x1.9552ef775510ep-5, 0x0p+0,
      0x0p+0, 0x1.0d548aaa20debp-18, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a10", ClockMode::kLockedBase, 4096, 18432, 73728,
     {0x1.842a037a42b95p-4, 0x1.c51eb851eb852p-1, 0x1.43ca3dc60f2fap-4,
      0x1.43ca3dc60f2fap-4, 0x1.8426336bc471dp-4, 0x0p+0,
      0x0p+0, 0x1.70580eb9271bcp-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a10", ClockMode::kAutoThermal, 4096, 18432, 73728,
     {0x1.56e8a18668241p-4, 0x1.00762974e619ep+0, 0x1.43ca3dc60f2fap-4,
      0x1.43ca3dc60f2fap-4, 0x1.56e4d177eafbfp-4, 0x0p+0,
      0x0p+0, 0x1.70580eb9271bcp-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a100", ClockMode::kBoost, 1, 18432, 73728,
     {0x1.2e6cb8343ba43p-12, 0x1.68f5c28f5c28fp+0, 0x1.297dc60a5642dp-12,
      0x1.682bc066616e7p-13, 0x1.44c760b34fa62p-14, 0x0p+0,
      0x1.93bb2bc443e85p-20, 0x1.16dbb12c6f8fcp-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a100", ClockMode::kLockedBase, 1, 18432, 73728,
     {0x1.2e6f95d2736f7p-12, 0x1.4666666666666p+0, 0x1.297dc60a5642dp-12,
      0x1.682bc066616e7p-13, 0x1.672acb50d6939p-14, 0x0p+0,
      0x1.93bb2bc443e85p-20, 0x1.16dbb12c6f8fcp-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a100", ClockMode::kAutoThermal, 1, 18432, 73728,
     {0x1.2e6cb8343ba43p-12, 0x1.68f5c28f5c28fp+0, 0x1.297dc60a5642dp-12,
      0x1.682bc066616e7p-13, 0x1.44c760b34fa62p-14, 0x0p+0,
      0x1.93bb2bc443e85p-20, 0x1.16dbb12c6f8fcp-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a100", ClockMode::kBoost, 16, 18432, 73728,
     {0x1.2ff85ba8f26f5p-12, 0x1.68f5c28f5c28fp+0, 0x1.2b09697f0d082p-12,
      0x1.682bc066616e7p-13, 0x1.44c760b34fa62p-14, 0x0p+0,
      0x1.93bb2bc443e85p-20, 0x1.17e3737a3ebdep-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a100", ClockMode::kLockedBase, 16, 18432, 73728,
     {0x1.2ffb39472a3a9p-12, 0x1.4666666666666p+0, 0x1.2b09697f0d082p-12,
      0x1.682bc066616e7p-13, 0x1.672acb50d6939p-14, 0x0p+0,
      0x1.93bb2bc443e85p-20, 0x1.17e3737a3ebdep-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a100", ClockMode::kAutoThermal, 16, 18432, 73728,
     {0x1.2ff85ba8f26f5p-12, 0x1.68f5c28f5c28fp+0, 0x1.2b09697f0d082p-12,
      0x1.682bc066616e7p-13, 0x1.44c760b34fa62p-14, 0x0p+0,
      0x1.93bb2bc443e85p-20, 0x1.17e3737a3ebdep-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a100", ClockMode::kBoost, 128, 4096, 11008,
     {0x1.ea82be92e547bp-16, 0x1.68f5c28f5c28fp+0, 0x1.5da090ab603dfp-16,
      0x1.4a41f9f95101ep-16, 0x1.b109d6446a32ep-16, 0x0p+0,
      0x0p+0, 0x1.feb0404bcc59ap-20, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a100", ClockMode::kLockedBase, 128, 4096, 11008,
     {0x1.052ca2647c03bp-15, 0x1.4666666666666p+0, 0x1.9bfc6e9a69616p-16,
      0x1.4a7f6b7537f33p-16, 0x1.7d9d7805e3fccp-16, 0x0p+0,
      0x1.96f709dde4d17p-19, 0x1.53081d361dd28p-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a100", ClockMode::kAutoThermal, 128, 4096, 11008,
     {0x1.ea82be92e547bp-16, 0x1.68f5c28f5c28fp+0, 0x1.5da090ab603dfp-16,
      0x1.4a41f9f95101ep-16, 0x1.b109d6446a32ep-16, 0x0p+0,
      0x0p+0, 0x1.feb0404bcc59ap-20, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a100", ClockMode::kBoost, 512, 8192, 28672,
     {0x1.c65bbfc04d5f1p-12, 0x1.68f5c28f5c28fp+0, 0x1.b34de26415a48p-12,
      0x1.ae22118015fe7p-12, 0x1.c11bb3b7f423cp-12, 0x0p+0,
      0x1.96f709dde4d17p-20, 0x1.2265134d1e422p-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a100", ClockMode::kLockedBase, 512, 8192, 28672,
     {0x1.f5e9392e21df5p-12, 0x1.4666666666666p+0, 0x1.b34de26415a48p-12,
      0x1.ae22118015fe7p-12, 0x1.f0a92d25c8b8p-12, 0x0p+0,
      0x1.96f709dde4d17p-20, 0x1.2265134d1e422p-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a100", ClockMode::kAutoThermal, 512, 8192, 28672,
     {0x1.c65bbfc04d5f1p-12, 0x1.68f5c28f5c28fp+0, 0x1.b34de26415a48p-12,
      0x1.ae22118015fe7p-12, 0x1.c11bb3b7f423cp-12, 0x0p+0,
      0x1.96f709dde4d17p-20, 0x1.2265134d1e422p-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a100", ClockMode::kBoost, 4096, 18432, 73728,
     {0x1.44dc5be6feeb4p-6, 0x1.68f5c28f5c28fp+0, 0x1.370e83412599ap-6,
      0x1.370e83412599ap-6, 0x1.44c760b34fa62p-6, 0x0p+0,
      0x1.96f709dde4d17p-20, 0x1.1fe6d9fba4744p-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a100", ClockMode::kLockedBase, 4096, 18432, 73728,
     {0x1.673fc684867dap-6, 0x1.4666666666666p+0, 0x1.370e83412599ap-6,
      0x1.370e83412599ap-6, 0x1.672acb50d6939p-6, 0x0p+0,
      0x1.96f709dde4d17p-20, 0x1.1fe6d9fba4744p-19, 0x1.4f8b588e368f1p-19}},
    {"sparse-marlin", "a100", ClockMode::kAutoThermal, 4096, 18432, 73728,
     {0x1.5bd779d8671f3p-6, 0x1.511b54f36745p+0, 0x1.370e83412599ap-6,
      0x1.370e83412599ap-6, 0x1.5bc27ea4b99f3p-6, 0x0p+0,
      0x1.96f709dde4d17p-20, 0x1.1fe6d9fba4744p-19, 0x1.4f8b588e368f1p-19}}};

std::array<double, 9> estimate_fields(const gpusim::KernelEstimate& e) {
  const gpusim::TimeBreakdown& b = e.breakdown;
  return {e.seconds,   e.effective_clock_ghz, b.mem_s,
          b.l2_s,      b.compute_s,           b.dequant_s,
          b.reduce_s,  b.pipeline_fill_s,     b.launch_s};
}

TEST(TimingPins, EstimatesMatchRecordedValuesBitForBit) {
  static constexpr const char* kFields[] = {
      "seconds",   "effective_clock_ghz", "mem_s",
      "l2_s",      "compute_s",           "dequant_s",
      "reduce_s",  "pipeline_fill_s",     "launch_s"};
  index_t throttled = 0;
  for (const PinnedEstimate& pin : kPinnedEstimates) {
    const auto d = gpusim::device_by_name(pin.device);
    const gpusim::ClockModel clock{pin.mode};
    const auto est = make_kernel_model(pin.kernel)->estimate(
        {pin.m, pin.k, pin.n, 128, false}, d, clock);
    const auto got = estimate_fields(est);
    for (std::size_t f = 0; f < got.size(); ++f) {
      EXPECT_EQ(got[f], pin.values[f])
          << pin.kernel << " on " << pin.device << " mode "
          << static_cast<int>(pin.mode) << " m=" << pin.m << " k=" << pin.k
          << " n=" << pin.n << ": " << kFields[f] << std::hexfloat << " got "
          << got[f] << ", pinned " << pin.values[f];
    }
    // Past the thermal budget the second fixed-point pass must still run:
    // its clock is the throttled one, not boost.
    if (pin.mode == ClockMode::kAutoThermal && pin.m == 4096) {
      EXPECT_LT(est.effective_clock_ghz, d.boost_clock_ghz)
          << pin.kernel << " on " << pin.device;
      ++throttled;
    }
  }
  EXPECT_EQ(throttled, 6);
}

TEST(Factory, AllModelsConstructible) {
  for (const char* name :
       {"fp16", "marlin", "sparse-marlin", "torch-int4", "exllamav2", "awq",
        "bitsandbytes", "ideal-dense", "ideal-int4", "ideal-sparse"}) {
    EXPECT_EQ(baselines::make_kernel_model(name)->name(), name);
  }
  EXPECT_THROW(baselines::make_kernel_model("nope"), marlin::Error);
}

}  // namespace
}  // namespace marlin::core
