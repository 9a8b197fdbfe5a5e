//===- sim/Paging.h - Demand-paging simulation ------------------*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An LRU demand-paging simulator over code-page reference strings
/// (produced by the execution engines' page tracking). Reproduces the
/// introduction's motivating measurement: when memory is scarce the CPU
/// idles during paging, so executing compressed code — fewer, denser
/// pages — can cut total time even though each instruction costs more
/// to interpret.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_SIM_PAGING_H
#define CCOMP_SIM_PAGING_H

#include <cstdint>
#include <vector>

namespace ccomp {
namespace sim {

/// Result of replaying a page reference string.
struct PagingResult {
  uint64_t References = 0;
  uint64_t Faults = 0;
};

/// Replays \p Trace (a run-length page reference string: successive
/// entries are distinct pages) against an LRU-managed resident set of
/// \p ResidentPages frames.
PagingResult simulateLRU(const std::vector<uint32_t> &Trace,
                         unsigned ResidentPages);

/// Disk/backing-store model for turning faults into time.
struct DiskModel {
  double FaultSeconds = 0.012; ///< ~12ms seek+read, period-accurate.
};

/// Total-time model: CPU execution time plus fault service time. The
/// CPU is idle during paging (the paper's observation), so the terms
/// add.
struct TotalTime {
  double CpuSeconds = 0;
  double PagingSeconds = 0;
  double total() const { return CpuSeconds + PagingSeconds; }
};

inline TotalTime totalTime(double CpuSeconds, const PagingResult &P,
                           const DiskModel &D) {
  return {CpuSeconds, static_cast<double>(P.Faults) * D.FaultSeconds};
}

} // namespace sim
} // namespace ccomp

#endif // CCOMP_SIM_PAGING_H
