//===- perfbench/cpp/Probe.h - Layer timers, spans and seam decorators ---===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How the benchmark sees inside a run without touching library code. Two
/// decorators wrap the library's public seams:
///
///   - TimedResolver wraps a vm::FunctionResolver (the interpreter's hook
///     into the store and the native tier). It times every hook call and
///     keeps the duration of each call that fetched a frame: the stall a
///     running program sees on a fault.
///   - TimedSource wraps a store::FrameSource. Every fetch sets the
///     calling thread's "fetched" flag, which is how TimedResolver knows a
///     call faulted.
///
/// Those two thin timers are always on. Tracing adds spans: one root span
/// per op, a child span per resolver hook call, a grandchild per fetch,
/// and spans around build, open, connect and server start. Spans live in
/// a per-thread log in memory and are written out when the run ends. A
/// span's self time is its duration minus its children's, so the layers
/// of one op add up to the op's wall time.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_PERFBENCH_PROBE_H
#define CCOMP_PERFBENCH_PROBE_H

#include "store/FrameSource.h"
#include "vm/Machine.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class SpanKind : uint8_t {
  Op,
  Resolve,
  ResolveSpan,
  EnterNative,
  Fetch,
  Build,
  Open,
  Connect,
  ServerStart,
};

const char *spanName(SpanKind K);

struct Span {
  uint64_t Op = 0; ///< 0 for set-up spans, else the op id.
  uint64_t Start = 0;
  uint64_t End = 0;
  uint32_t Parent = 0; ///< Index in the same thread's log; NoParent if root.
  SpanKind Kind = SpanKind::Op;
};

constexpr uint32_t NoParent = ~0u;

/// One thread's counters and span log. Each thread that runs ops owns one
/// (Probe::local()); the process keeps every probe alive until exit so
/// the logs can be read after worker threads have ended.
struct Probe {
  // Thin timers, always on.
  uint64_t Resolves = 0;   ///< resolve + resolveSpan calls.
  uint64_t HookCalls = 0;  ///< All hook calls, enterNative included.
  uint64_t Faults = 0;     ///< Hook calls that fetched a frame.
  uint64_t FetchCalls = 0; ///< Frame and manifest fetches.
  uint64_t FetchBytes = 0; ///< Compressed bytes fetched successfully.
  std::vector<double> FaultUs; ///< Duration of each faulting hook call.
  bool Fetched = false; ///< Set by TimedSource, read by TimedResolver.

  // Tracing.
  bool Tracing = false;
  uint64_t Op = 0; ///< Op id stamped on new spans.
  std::vector<Span> Spans;
  std::vector<uint32_t> OpenSpans;

  /// Zeroes the thin-timer counters and samples (not the span log).
  void resetCounts();

  /// The calling thread's probe.
  static Probe &local();
  /// Every probe created so far. Call only while no op is running.
  static std::vector<Probe *> all();
};

/// RAII span on the calling thread; a no-op unless the probe is tracing.
class SpanScope {
public:
  SpanScope(Probe &P, SpanKind K);
  ~SpanScope();
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Probe *Owner = nullptr;
  uint32_t Index = 0;
};

/// Marks the calling thread as running op \p Id (traced or not) and
/// opens its root span; restores the idle state on destruction.
class OpScope {
public:
  OpScope(uint64_t Id, bool Traced);
  ~OpScope();
  OpScope(const OpScope &) = delete;
  OpScope &operator=(const OpScope &) = delete;

private:
  Probe &P;
  bool WasTracing;
  SpanScope Root;
};

/// vm::FunctionResolver decorator: forwards every hook to \p Inner,
/// timing each call and recording the ones that fetched.
class TimedResolver final : public ccomp::vm::FunctionResolver {
public:
  explicit TimedResolver(ccomp::vm::FunctionResolver &Inner) : Inner(Inner) {}

  uint32_t functionCount() const override { return Inner.functionCount(); }
  std::shared_ptr<const ccomp::vm::VMFunction>
  resolve(uint32_t Fn, std::string &Err) override;
  bool resolveSpan(uint32_t Fn, uint32_t Idx, ccomp::vm::CodeSpan &Out,
                   std::string &Err) override;
  bool enterNative(ccomp::vm::Machine &M, uint32_t &Fn, uint32_t &Idx,
                   uint64_t &Steps) override;

private:
  ccomp::vm::FunctionResolver &Inner;
};

/// store::FrameSource decorator: forwards to \p Inner, flags the calling
/// thread as having fetched, and counts fetches and bytes.
class TimedSource final : public ccomp::store::FrameSource {
public:
  explicit TimedSource(std::unique_ptr<ccomp::store::FrameSource> Inner)
      : Inner(std::move(Inner)) {}

  const char *kind() const override { return Inner->kind(); }
  const std::string &chainSpec() const override { return Inner->chainSpec(); }
  uint32_t functionFrameCount() const override {
    return Inner->functionFrameCount();
  }
  size_t frameBytes() const override { return Inner->frameBytes(); }
  ccomp::store::FetchResult fetchFrame(uint32_t Id) override;
  ccomp::store::FetchResult fetchManifest() override;
  bool contentHash(uint64_t &H) override { return Inner->contentHash(H); }
  void prefetchHint(const std::vector<uint32_t> &Ids) override {
    Inner->prefetchHint(Ids);
  }

private:
  ccomp::store::FetchResult counted(ccomp::store::FetchResult R);

  std::unique_ptr<ccomp::store::FrameSource> Inner;
};

/// Per-op layer times derived from the spans of one traced op.
struct OpLayers {
  double OpNs = 0;          ///< Root span: the op's wall time.
  double RootSelfNs = 0;    ///< Root minus every hook, connect and open span.
  double FaultNs = 0;       ///< Hook calls that fetched, children included.
  double NativeSelfNs = 0;  ///< enterNative calls minus their fetches.
};

/// Layer samples from every probe's spans.
struct TraceSummary {
  std::vector<OpLayers> Ops;       ///< One per traced op.
  std::vector<double> FaultSelfUs; ///< Faulting hook calls minus fetches.
  std::vector<double> HitNs;       ///< resolve/resolveSpan calls, no fetch.
  std::vector<double> FetchUs;     ///< Fetches inside ops.
  std::vector<double> BuildMs, OpenMs, ConnectMs, ServerStartMs;
  size_t SpanCount = 0;
};

TraceSummary summarizeSpans();

/// Writes every span as tab-separated lines. Returns false on I/O error.
bool writeSpans(const std::string &Path);

} // namespace perfbench

#endif // CCOMP_PERFBENCH_PROBE_H
