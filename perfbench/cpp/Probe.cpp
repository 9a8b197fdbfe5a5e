//===- perfbench/cpp/Probe.cpp - Layer timers, spans and seam decorators -===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "Probe.h"

#include <cstdio>
#include <mutex>
#include <unordered_map>

using namespace perfbench;
using namespace ccomp;

const char *perfbench::spanName(SpanKind K) {
  switch (K) {
  case SpanKind::Op:
    return "op";
  case SpanKind::Resolve:
    return "resolve";
  case SpanKind::ResolveSpan:
    return "resolveSpan";
  case SpanKind::EnterNative:
    return "enterNative";
  case SpanKind::Fetch:
    return "fetch";
  case SpanKind::Build:
    return "build";
  case SpanKind::Open:
    return "open";
  case SpanKind::Connect:
    return "connect";
  case SpanKind::ServerStart:
    return "server_start";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Probes
//===----------------------------------------------------------------------===//

namespace {

std::mutex RegistryMu;
std::vector<std::unique_ptr<Probe>> &registry() {
  static std::vector<std::unique_ptr<Probe>> Probes;
  return Probes;
}

Probe *registerProbe() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  registry().push_back(std::make_unique<Probe>());
  return registry().back().get();
}

} // namespace

void Probe::resetCounts() {
  Resolves = HookCalls = Faults = FetchCalls = FetchBytes = 0;
  FaultUs.clear();
  Fetched = false;
}

Probe &Probe::local() {
  thread_local Probe *Mine = registerProbe();
  return *Mine;
}

std::vector<Probe *> Probe::all() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  std::vector<Probe *> Out;
  for (const std::unique_ptr<Probe> &P : registry())
    Out.push_back(P.get());
  return Out;
}

SpanScope::SpanScope(Probe &P, SpanKind K) {
  if (!P.Tracing)
    return;
  Owner = &P;
  Index = static_cast<uint32_t>(P.Spans.size());
  Span S;
  S.Op = P.Op;
  S.Kind = K;
  S.Parent = P.OpenSpans.empty() ? NoParent : P.OpenSpans.back();
  P.OpenSpans.push_back(Index);
  S.Start = nowNs();
  P.Spans.push_back(S);
}

SpanScope::~SpanScope() {
  if (!Owner)
    return;
  Owner->Spans[Index].End = nowNs();
  Owner->OpenSpans.pop_back();
}

namespace {

bool enterOp(Probe &P, uint64_t Id, bool Traced) {
  bool Was = P.Tracing;
  P.Tracing = Traced;
  P.Op = Id;
  return Was;
}

} // namespace

OpScope::OpScope(uint64_t Id, bool Traced)
    : P(Probe::local()), WasTracing(enterOp(P, Id, Traced)),
      Root(P, SpanKind::Op) {}

// Root is a member, so its span closes right after this body; closing
// does not depend on the tracing flag restored here.
OpScope::~OpScope() {
  P.Tracing = WasTracing;
  P.Op = 0;
}

//===----------------------------------------------------------------------===//
// Decorators
//===----------------------------------------------------------------------===//

namespace {

/// Runs one resolver hook call under the thin timer (and a span when
/// tracing). \p IsResolve separates span resolves from enterNative.
template <class Fn>
auto timedHook(SpanKind K, bool IsResolve, Fn &&Call) {
  Probe &P = Probe::local();
  SpanScope S(P, K);
  P.Fetched = false;
  uint64_t T0 = nowNs();
  auto R = Call();
  uint64_t T1 = nowNs();
  ++P.HookCalls;
  if (IsResolve)
    ++P.Resolves;
  if (P.Fetched) {
    ++P.Faults;
    P.FaultUs.push_back(static_cast<double>(T1 - T0) / 1e3);
  }
  return R;
}

} // namespace

std::shared_ptr<const vm::VMFunction>
TimedResolver::resolve(uint32_t Fn, std::string &Err) {
  return timedHook(SpanKind::Resolve, true,
                   [&] { return Inner.resolve(Fn, Err); });
}

bool TimedResolver::resolveSpan(uint32_t Fn, uint32_t Idx, vm::CodeSpan &Out,
                                std::string &Err) {
  return timedHook(SpanKind::ResolveSpan, true,
                   [&] { return Inner.resolveSpan(Fn, Idx, Out, Err); });
}

bool TimedResolver::enterNative(vm::Machine &M, uint32_t &Fn, uint32_t &Idx,
                                uint64_t &Steps) {
  return timedHook(SpanKind::EnterNative, false,
                   [&] { return Inner.enterNative(M, Fn, Idx, Steps); });
}

store::FetchResult TimedSource::counted(store::FetchResult R) {
  Probe &P = Probe::local();
  P.Fetched = true;
  ++P.FetchCalls;
  if (R.Ok)
    P.FetchBytes += R.Bytes.size();
  return R;
}

store::FetchResult TimedSource::fetchFrame(uint32_t Id) {
  SpanScope S(Probe::local(), SpanKind::Fetch);
  return counted(Inner->fetchFrame(Id));
}

store::FetchResult TimedSource::fetchManifest() {
  SpanScope S(Probe::local(), SpanKind::Fetch);
  return counted(Inner->fetchManifest());
}

//===----------------------------------------------------------------------===//
// Span analysis and output
//===----------------------------------------------------------------------===//

TraceSummary perfbench::summarizeSpans() {
  TraceSummary Sum;
  for (Probe *P : Probe::all()) {
    const std::vector<Span> &Sp = P->Spans;
    Sum.SpanCount += Sp.size();
    std::vector<double> ChildNs(Sp.size(), 0);
    std::vector<uint8_t> HasFetch(Sp.size(), 0);
    for (const Span &S : Sp)
      if (S.Parent != NoParent) {
        ChildNs[S.Parent] += static_cast<double>(S.End - S.Start);
        if (S.Kind == SpanKind::Fetch)
          HasFetch[S.Parent] = 1;
      }
    std::unordered_map<uint64_t, size_t> OpIndex;
    auto layersOf = [&](uint64_t Op) -> OpLayers & {
      auto [It, New] = OpIndex.try_emplace(Op, Sum.Ops.size());
      if (New)
        Sum.Ops.emplace_back();
      return Sum.Ops[It->second];
    };
    for (size_t I = 0; I != Sp.size(); ++I) {
      const Span &S = Sp[I];
      double Dur = static_cast<double>(S.End - S.Start);
      double Self = Dur - ChildNs[I];
      switch (S.Kind) {
      case SpanKind::Op: {
        OpLayers &L = layersOf(S.Op);
        L.OpNs = Dur;
        L.RootSelfNs = Self;
        break;
      }
      case SpanKind::Resolve:
      case SpanKind::ResolveSpan:
      case SpanKind::EnterNative: {
        if (S.Op == 0)
          break;
        OpLayers &L = layersOf(S.Op);
        if (HasFetch[I]) {
          L.FaultNs += Dur;
          Sum.FaultSelfUs.push_back(Self / 1e3);
        } else if (S.Kind != SpanKind::EnterNative) {
          Sum.HitNs.push_back(Dur);
        }
        if (S.Kind == SpanKind::EnterNative)
          L.NativeSelfNs += Self;
        break;
      }
      case SpanKind::Fetch:
        if (S.Op != 0)
          Sum.FetchUs.push_back(Dur / 1e3);
        break;
      case SpanKind::Build:
        Sum.BuildMs.push_back(Dur / 1e6);
        break;
      case SpanKind::Open:
        Sum.OpenMs.push_back(Dur / 1e6);
        break;
      case SpanKind::Connect:
        Sum.ConnectMs.push_back(Dur / 1e6);
        break;
      case SpanKind::ServerStart:
        Sum.ServerStartMs.push_back(Dur / 1e6);
        break;
      }
    }
  }
  return Sum;
}

bool perfbench::writeSpans(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "thread\top\tspan\tindex\tparent\tstart_ns\tend_ns\n");
  unsigned Thread = 0;
  for (Probe *P : Probe::all()) {
    for (size_t I = 0; I != P->Spans.size(); ++I) {
      const Span &S = P->Spans[I];
      long long Parent = S.Parent == NoParent ? -1 : (long long)S.Parent;
      std::fprintf(F, "%u\t%llu\t%s\t%zu\t%lld\t%llu\t%llu\n", Thread,
                   (unsigned long long)S.Op, spanName(S.Kind), I, Parent,
                   (unsigned long long)S.Start, (unsigned long long)S.End);
    }
    ++Thread;
  }
  return std::fclose(F) == 0;
}
