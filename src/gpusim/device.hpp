#pragma once
// Ampere-class device catalog.
//
// All numbers are *public* datasheet values (NVIDIA A10/A100 datasheets,
// GA102 whitepaper). They are the only calibration inputs of the timing
// model. Two sanity anchors from the paper: on A10 the FP16 tensor-core
// peak is 125 TFLOP/s at boost and 65.3 TFLOP/s at base clock, giving the
// 208.3 and 108.8 FLOP/byte ridge points drawn in paper Figure 11.

#include <string>
#include <vector>

namespace marlin::gpusim {

struct DeviceSpec {
  std::string name;
  int num_sms = 0;
  double base_clock_ghz = 0;
  double boost_clock_ghz = 0;
  double gmem_bandwidth_gbs = 0;  // GB/s (1e9 bytes)
  double l2_size_bytes = 0;
  double l2_bandwidth_gbs = 0;  // aggregate L2 read bandwidth
  double smem_per_sm_bytes = 0;
  /// Dense FP16 tensor-core peak with FP32 accumulate, at boost clock.
  double fp16_tc_tflops_boost = 0;
  /// FP32 FMA (CUDA core) peak at boost clock — comparator kernels that do
  /// their multiply-accumulate on CUDA cores are capped by this.
  double fp32_fma_tflops_boost = 0;
  /// 2:4 sparse tensor cores double MMA throughput on Ampere.
  double sparse_tc_multiplier = 2.0;
  /// Fixed host-side kernel launch latency.
  double kernel_launch_s = 5e-6;
  /// On-device memory capacity (GB, 1e9 bytes) — bounds the KV-cache block
  /// budget of the serving scheduler once weights are resident.
  double hbm_gb = 24.0;
  int warp_schedulers_per_sm = 4;
  /// Per-GPU interconnect used for tensor-parallel all-reduce and
  /// pipeline-parallel activation send/recv (NVLink or PCIe; bandwidth is
  /// the per-GPU aggregate, latency is one hop).
  std::string interconnect_name = "PCIe 4.0 x16";
  double interconnect_bandwidth_gbs = 32.0;  // PCIe 4.0 x16 default
  double interconnect_latency_s = 10e-6;
  [[nodiscard]] double interconnect_bytes_per_s() const {
    return interconnect_bandwidth_gbs * 1e9;
  }

  [[nodiscard]] double clock_ratio(double clock_ghz) const {
    return clock_ghz / boost_clock_ghz;
  }
  /// Tensor-core peak in FLOP/s at the given clock.
  [[nodiscard]] double tc_flops(double clock_ghz) const {
    return fp16_tc_tflops_boost * 1e12 * clock_ratio(clock_ghz);
  }
  [[nodiscard]] double fma_flops(double clock_ghz) const {
    return fp32_fma_tflops_boost * 1e12 * clock_ratio(clock_ghz);
  }
  [[nodiscard]] double gmem_bytes_per_s() const {
    return gmem_bandwidth_gbs * 1e9;
  }
  [[nodiscard]] double hbm_bytes() const { return hbm_gb * 1e9; }
  [[nodiscard]] double l2_bytes_per_s() const { return l2_bandwidth_gbs * 1e9; }
  /// FLOP-per-byte ridge point at the given clock (paper §3.1).
  [[nodiscard]] double flops_per_byte(double clock_ghz) const {
    return tc_flops(clock_ghz) / gmem_bytes_per_s();
  }
};

/// NVIDIA A10 (GA102, inference-optimised): 72 SMs, 600 GB/s GDDR6.
DeviceSpec a10();
/// NVIDIA A100 80GB SXM (GA100): 108 SMs, ~2 TB/s HBM2e, NVLink.
DeviceSpec a100_80g();
/// NVIDIA GeForce RTX 3090 (GA102): GeForce parts run FP16 tensor ops with
/// FP32 accumulate at half rate — 71 TFLOP/s.
DeviceSpec rtx3090();
/// NVIDIA RTX A6000 (GA102 workstation): full-rate TC, 768 GB/s.
DeviceSpec rtxa6000();

/// Lookup by case-insensitive name ("a10", "A100", ...); see
/// util/names.hpp.
DeviceSpec device_by_name(const std::string& name);
/// All catalog entries.
std::vector<DeviceSpec> all_devices();

}  // namespace marlin::gpusim
