//===- perfbench/cpp/Workloads.h - The benchmark's named workloads -------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef CCOMP_PERFBENCH_WORKLOADS_H
#define CCOMP_PERFBENCH_WORKLOADS_H

#include "Report.h"

#include <cstdint>
#include <string>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir;      ///< Work files: container, span log.
};

struct RunOutcome {
  MetricWriter Metrics; ///< End-to-end metrics, or per-layer when tracing.
  bool Correct = true;  ///< Every completed op matched the eager run.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t ContainerBytes = 0;
  uint64_t ContainerHash = 0; ///< FNV-1a of the container image.
};

bool isWorkload(const std::string &Name);

/// Sets the workload up, runs its timed loop, and reports. Aborts (exit
/// code != 0) only when the workload cannot be set up at all.
RunOutcome runWorkload(const RunConfig &C);

} // namespace perfbench

#endif // CCOMP_PERFBENCH_WORKLOADS_H
