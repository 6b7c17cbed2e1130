// perfbench: the repository benchmark.
//
//   perfbench --workload fleet|tenants|kernel --seed N --seconds S --trace 0|1
//
// Runs repetitions of one workload back to back for S seconds, checks
// every repetition's outputs, prints a human-readable report and, as the
// last line of stdout, one JSON object:
//   --trace 0: the end-to-end metrics, from untraced repetitions;
//   --trace 1: the per-layer metrics, from traced repetitions (spans
//              recorded by this benchmark around its calls into each
//              layer) interleaved with untraced ones for trace_overhead.
// Exits non-zero, without the JSON line, when any check fails.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "report.hpp"
#include "util/cpuid.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

/// Per-layer metrics every traced run reports; a layer the workload does
/// not exercise reads 0.
const std::vector<std::pair<const char*, const char*>> kPerLayer{
    {"loop.run_s", "s"},
    {"loop.self_s", "s"},
    {"loop.ticks", "count"},
    {"loop.self_ns_per_tick", "ns"},
    {"cluster.tick_ns_growth", "ratio"},
    {"cluster.route_imbalance", "ratio"},
    {"sched.preemptions", "count"},
    {"sched.prefix_hit_ratio", "ratio"},
    {"sched.cow_copies", "count"},
    {"sched.peak_kv_blocks", "blocks"},
    {"sched.mean_batch", "seqs"},
    {"workload.trace_s", "s"},
    {"engine.calls", "count"},
    {"engine.busy_s", "s"},
    {"engine.call_ns_p50", "ns"},
    {"engine.call_ns_p99", "ns"},
    {"engine.distinct_ratio", "ratio"},
    {"engine.build_s", "s"},
    {"engine.warm_s", "s"},
    {"kernel.estimate_ns_p50", "ns"},
    {"kernel.estimate_ns_p99", "ns"},
    {"kernel.matmul_ns_per_mac", "ns"},
    {"kernel.gmem_bytes", "bytes"},
    {"kernel.reduction_steps", "count"},
    {"kernel.sim_gmem_share.b16", "ratio"},
    {"kernel.sim_gmem_share.b128", "ratio"},
    {"quant.quantize_s", "s"},
    {"layout.repack_s", "s"},
    {"kernel.reference_s", "s"},
    {"trace_overhead", "ratio"},
    {"util.threads", "count"},
    {"util.simd_level", "level"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload fleet|tenants|kernel "
               "--seed N --seconds S --trace 0|1\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool trace_set = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
        trace_set = true;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (opt.workload != "fleet" && opt.workload != "tenants" &&
      opt.workload != "kernel") {
    usage("unknown workload `" + opt.workload + "`");
  }
  if (!trace_set) usage("--trace is required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  perfbench::Report report;
  const marlin::simd::Level simd = marlin::simd::active_level();
  const int threads = opt.workload == "kernel" ? perfbench::kernel_threads() : 1;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d simd=%s "
              "threads=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, marlin::simd::to_string(simd),
              threads);
  try {
    if (opt.workload == "kernel") {
      perfbench::run_kernel(opt, report);
    } else {
      perfbench::run_serving(opt, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (opt.trace) {
    report.result("util.threads", threads, "count");
    report.result("util.simd_level", static_cast<double>(simd), "level",
                  "0 scalar, 1 avx2, 2 avx512");
    for (const auto& [name, unit] : kPerLayer) report.ensure(name, unit);
    report.check(report.results().size() == kPerLayer.size(),
                 "a workload reported a per-layer metric outside the list");
  }
  return report.print();
}
