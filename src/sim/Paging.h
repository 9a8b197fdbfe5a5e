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
  /// Sequential transfer rate for the bytes a fault reads, used by the
  /// page-granularity model where fault payloads vary in size (~2 MB/s,
  /// period-accurate commodity disk).
  double TransferBytesPerSecond = 2e6;
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

/// Decode-on-fault model for the store runtime (src/store) — the
/// "decompress the page contents on page-in" configuration of section
/// 1. Every store fault pays one backing-store seek, the bytes it reads
/// pay transfer time, and the CPU additionally runs the store's measured
/// frame decompression.
///
/// \p FetchedCompressedBytes (store::StoreStats::FetchedBytes) models
/// a read size that varies per fault, as with sub-function pages:
/// smaller pages trade more seeks for fewer wasted bytes per fault, and
/// the sweep in EXPERIMENTS E7 measures where that trade pays off. Pass
/// 0 to fold the transfer into the seek constant, as for whole-function
/// frames.
///
/// Shared stores use the same model with registry-global numbers: N
/// tenants over one FrameRegistry pass their summed interpreter CPU,
/// store::RegistryStats::Decodes as \p Faults and its DecodeNanos — a
/// frame decoded for one tenant is a free hit for every other, so the
/// decode and fault bills are paid once, process-wide.
inline TotalTime storeTotalTime(double CpuSeconds, uint64_t Faults,
                                uint64_t FetchedCompressedBytes,
                                uint64_t DecodeNanos, const DiskModel &D) {
  return {CpuSeconds + static_cast<double>(DecodeNanos) / 1e9,
          static_cast<double>(Faults) * D.FaultSeconds +
              static_cast<double>(FetchedCompressedBytes) /
                  D.TransferBytesPerSecond};
}

/// Remote-fetch variant: a store miss pays link transfer time instead of
/// a disk seek. \p FetchVirtualNanos is the virtual clock accumulated by
/// the store's frame source (store::StoreStats::FetchVirtualNanos —
/// transfer, injected failures, and retry backoff), and the CPU still
/// runs the frame decoder, so decode time stays a CPU term. This is the
/// mobile-code delivery scenario of section 1 at per-function
/// granularity.
inline TotalTime remoteTotalTime(double CpuSeconds, uint64_t DecodeNanos,
                                 uint64_t FetchVirtualNanos) {
  return {CpuSeconds + static_cast<double>(DecodeNanos) / 1e9,
          static_cast<double>(FetchVirtualNanos) / 1e9};
}

/// JIT cost model: what compiling hot code to native form charges. The
/// paper's generator produces ~2.5 MB/s of native code, so a tiered run
/// pays CompiledBytes / BytesPerSecond of CPU before the hot set runs
/// at native speed.
struct JitModel {
  double BytesPerSecond = 2.5e6; ///< Paper's JIT rate headline.
};

/// Tiered-execution variant: the store time model plus a compile
/// charge on the CPU term. \p CompiledBytes is the threaded code the
/// tier produced (store::TierStats::CompiledBytesTotal); compilation
/// runs on the CPU like decode does, while the paging terms are
/// unchanged — tiering trades a one-time compile charge for the
/// interpretation penalty on every hot instruction.
inline TotalTime tieredTotalTime(double CpuSeconds, uint64_t Faults,
                                 uint64_t FetchedCompressedBytes,
                                 uint64_t DecodeNanos, uint64_t CompiledBytes,
                                 const DiskModel &D, const JitModel &J) {
  TotalTime T = storeTotalTime(CpuSeconds, Faults, FetchedCompressedBytes,
                               DecodeNanos, D);
  T.CpuSeconds += static_cast<double>(CompiledBytes) / J.BytesPerSecond;
  return T;
}

} // namespace sim
} // namespace ccomp

#endif // CCOMP_SIM_PAGING_H
