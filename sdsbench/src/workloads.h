// The benchmark's three workloads. Each runs in its own process (so
// peak RSS is per workload) and returns a RunReport: end-to-end metrics
// when untraced, per-layer metrics when traced.
#pragma once

#include <string>
#include <vector>

#include "common.h"

namespace sdsbench {

/// Workload names in the order the benchmark documents them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// sim_hier_100k_churn / sim_flat_2500_faults through sim::run_experiment.
[[nodiscard]] RunReport run_sim_workload(const Args& args);

/// live_tcp_flat_64: GlobalControllerServer + 2 StageHosts over TCP.
[[nodiscard]] RunReport run_live_workload(const Args& args);

}  // namespace sdsbench
