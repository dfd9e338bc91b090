// The three workloads. Each sets up its inputs from the run's seed,
// repeats whole rounds of its operations within the time budget,
// checks the outputs and returns the end-to-end metrics (or, with
// options.trace, the per-layer metrics).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

WorkloadResult RunHotFence(const RunOptions& options);
WorkloadResult RunFleetChurn(const RunOptions& options);
WorkloadResult RunEnrol(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
