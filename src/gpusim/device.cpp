#include "gpusim/device.hpp"

#include "util/names.hpp"

namespace marlin::gpusim {

DeviceSpec a10() {
  DeviceSpec d;
  d.name = "A10";
  d.num_sms = 72;
  d.base_clock_ghz = 0.885;
  d.boost_clock_ghz = 1.695;
  d.gmem_bandwidth_gbs = 600.0;
  d.hbm_gb = 24.0;
  d.l2_size_bytes = 6.0 * 1024 * 1024;
  d.l2_bandwidth_gbs = 1800.0;
  d.smem_per_sm_bytes = 100.0 * 1024;
  d.fp16_tc_tflops_boost = 125.0;  // -> 65.3 TF at 885 MHz base clock
  d.fp32_fma_tflops_boost = 31.2;
  d.kernel_launch_s = 2.5e-6;
  d.interconnect_bandwidth_gbs = 32.0;  // PCIe 4.0 x16
  return d;
}

DeviceSpec a100_80g() {
  DeviceSpec d;
  d.name = "A100";
  d.num_sms = 108;
  d.base_clock_ghz = 1.275;
  d.boost_clock_ghz = 1.410;
  d.gmem_bandwidth_gbs = 2039.0;
  d.hbm_gb = 80.0;
  d.l2_size_bytes = 40.0 * 1024 * 1024;
  d.l2_bandwidth_gbs = 4800.0;
  d.smem_per_sm_bytes = 164.0 * 1024;
  d.fp16_tc_tflops_boost = 312.0;
  d.fp32_fma_tflops_boost = 19.5;
  d.kernel_launch_s = 2.5e-6;
  d.interconnect_name = "NVLink 3";
  d.interconnect_bandwidth_gbs = 600.0;
  d.interconnect_latency_s = 6e-6;
  return d;
}

DeviceSpec rtx3090() {
  DeviceSpec d;
  d.name = "RTX3090";
  d.num_sms = 82;
  d.base_clock_ghz = 1.395;
  d.boost_clock_ghz = 1.695;
  d.gmem_bandwidth_gbs = 936.0;
  d.hbm_gb = 24.0;
  d.l2_size_bytes = 6.0 * 1024 * 1024;
  d.l2_bandwidth_gbs = 2300.0;
  d.smem_per_sm_bytes = 100.0 * 1024;
  d.fp16_tc_tflops_boost = 71.0;  // GeForce: half-rate FP32 accumulate
  d.fp32_fma_tflops_boost = 35.6;
  d.kernel_launch_s = 2.5e-6;
  d.interconnect_bandwidth_gbs = 32.0;
  return d;
}

DeviceSpec rtxa6000() {
  DeviceSpec d;
  d.name = "RTXA6000";
  d.num_sms = 84;
  d.base_clock_ghz = 1.455;
  d.boost_clock_ghz = 1.800;
  d.gmem_bandwidth_gbs = 768.0;
  d.hbm_gb = 48.0;
  d.l2_size_bytes = 6.0 * 1024 * 1024;
  d.l2_bandwidth_gbs = 2000.0;
  d.smem_per_sm_bytes = 100.0 * 1024;
  d.fp16_tc_tflops_boost = 154.8;
  d.fp32_fma_tflops_boost = 38.7;
  d.kernel_launch_s = 2.5e-6;
  d.interconnect_name = "NVLink bridge / PCIe 4.0";
  d.interconnect_bandwidth_gbs = 56.2;  // NVLink bridge pairs / PCIe mix
  return d;
}

std::vector<DeviceSpec> all_devices() {
  return {a10(), rtx3090(), rtxa6000(), a100_80g()};
}

DeviceSpec device_by_name(const std::string& name) {
  static const std::vector<DeviceSpec> catalog = all_devices();
  return by_name("device", name, catalog,
                 [](const DeviceSpec& d) { return d.name; });
}

}  // namespace marlin::gpusim
