#pragma once
// The three workloads: `fleet` and `tenants` (serving.cpp) and `kernel`
// (kernel.cpp). Each runs repetitions back to back for the requested
// seconds and fills the report.

#include "report.hpp"

namespace perfbench {

/// Pool threads of the kernel workload: the host's, capped at 4.
int kernel_threads();

void run_serving(const Options& opt, Report& report);
void run_kernel(const Options& opt, Report& report);

}  // namespace perfbench
