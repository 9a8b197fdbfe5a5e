//===- perfbench/cpp/Workloads.cpp - The benchmark's named workloads -----===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// Three workloads, each stressing a different layer of the runtime:
//
//   store-file-tight  icc class, 4 KiB pages, decode cache 1/8 of the
//                     decoded bytes, frames read on demand from a file.
//                     Every op re-faults most pages: decode dominates.
//   tier-resident     wep class, whole-function frames, the module fits
//                     the cache, one persistent TieredResolver. After
//                     warm-up nothing faults: interpreter and native tier.
//   net-sessions      a loopback FrameServer; client sessions arrive on a
//                     seeded open-loop schedule, at most two at a time,
//                     each dialing, opening a store and running the
//                     program with per-frame faulting.
//
// Every op is checked against the eager run of the uncompressed program
// (output, exit code and step count). The seed drives program synthesis
// and the arrival schedule; nothing else is random.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Probe.h"

#include "CorpusUtil.h"
#include "corpus/Corpus.h"
#include "net/FrameServer.h"
#include "net/SocketFrameSource.h"
#include "pipeline/Codec.h"
#include "store/CodeStore.h"
#include "store/Resolver.h"
#include "store/Tiered.h"
#include "support/PRNG.h"
#include "support/Support.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

using namespace ccomp;
using namespace perfbench;

namespace {

const char *const Chain = "brisc+flate";

/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupRepeats = 3;

/// The class programs: synthesize(Funcs, ClassSeed) is the icc class
/// (700, 2001) and the wep class (120, 1997); net-sessions reuses the wep
/// seed at the E10 size of 96 functions.
constexpr uint64_t IccSeed = 2001, WepSeed = 1997;

/// net-sessions: arrival rate. A session takes about 15 ms on a 4-vCPU
/// x86-64 virtual machine (two workers: 30% loaded), and up to twice that
/// while the host is busy (60%), so a backlog builds only if sessions slow
/// down by more than the host's own swings.
constexpr double SessionsPerSecond = 40;
constexpr unsigned SessionWorkers = 2;

//===----------------------------------------------------------------------===//
// Inputs and the correctness gate
//===----------------------------------------------------------------------===//

struct Reference {
  std::string Output;
  int32_t Exit = 0;
  uint64_t Steps = 0;
};

enum class Verdict { Ok, Error, Mismatch };

Verdict check(const vm::RunResult &R, const Reference &Ref) {
  if (!R.Ok)
    return Verdict::Error;
  if (R.Output != Ref.Output || R.ExitCode != Ref.Exit || R.Steps != Ref.Steps)
    return Verdict::Mismatch;
  return Verdict::Ok;
}

const pipeline::Codec &codec(const char *Name) {
  const pipeline::Codec *C = pipeline::Registry::instance().find(Name);
  if (!C)
    reportFatal(std::string("perfbench: codec not registered: ") + Name);
  return *C;
}

pipeline::CodecStats minus(const pipeline::CodecStats &A,
                           const pipeline::CodecStats &B) {
  pipeline::CodecStats D;
  D.CompressCalls = A.CompressCalls - B.CompressCalls;
  D.BytesIn = A.BytesIn - B.BytesIn;
  D.BytesOut = A.BytesOut - B.BytesOut;
  D.CompressNanos = A.CompressNanos - B.CompressNanos;
  return D;
}

uint64_t fnv1a(const std::vector<uint8_t> &Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint8_t B : Bytes)
    H = (H ^ B) * 0x100000001b3ull;
  return H;
}

/// One seed's program, its eager reference, and its container.
struct Module {
  vm::VMProgram Program;
  Reference Ref;
  std::vector<uint8_t> Image;
  size_t DecodedBytes = 0;
  /// Compress work CodeStore::build did, per chain stage.
  pipeline::CodecStats BriscBuild, FlateBuild;
};

/// store-file-tight: 4 KiB pages under a decode budget of 1/8 of the
/// decoded bytes (the E7 set-up).
constexpr size_t TightPageBytes = 4096;
size_t tightBudget(size_t DecodedBytes) { return DecodedBytes / 8; }

/// tier-resident: a budget that holds the whole wep-class module.
constexpr size_t ResidentBudget = 1u << 20;

size_t decodedBytes(const vm::VMProgram &P) {
  size_t Bytes = 0;
  for (const vm::VMFunction &F : P.Functions)
    Bytes += store::decodedCostBytes(F);
  return Bytes;
}

/// An op's work in units no clock affects: eager steps and, when \p
/// Faults is set, the steady-state faults per op of the store-file-tight
/// cache. Fault counts depend only on paging and the budget, so a store
/// built with the fast vm-compact codec stands in for brisc+flate.
struct Work {
  double Steps = 0;
  double Faults = 0;
};

Work workOf(const std::string &Src, bool Faults) {
  vm::VMProgram P = harness::mustBuild(Src);
  vm::RunResult E = vm::runProgram(P);
  if (!E.Ok)
    reportFatal("perfbench: candidate program trapped: " + E.Trap);
  Work W;
  W.Steps = double(E.Steps);
  if (Faults) {
    store::StoreOptions SO;
    SO.PageTargetBytes = TightPageBytes;
    SO.Shards = 1;
    SO.CacheBudgetBytes = tightBudget(decodedBytes(P));
    std::string Err;
    std::unique_ptr<store::CodeStore> S =
        store::CodeStore::build(P, "vm-compact", SO, Err);
    if (!S)
      reportFatal("perfbench: candidate store: " + Err);
    store::runFromStore(*S);
    uint64_t Before = S->stats().Misses;
    store::runFromStore(*S);
    W.Faults = double(S->stats().Misses - Before);
  }
  return W;
}

/// The seed's program. Seeds should vary the code an op runs but not how
/// much work the op is, or seed-to-seed differences in program size (eager
/// steps vary by a factor of two across seeds) would swamp every
/// comparison between commits. So a seed derives \p Candidates programs
/// of the class's size, the first being synthesize(Funcs, Seed) itself,
/// and keeps the one whose work is closest to the class program's; the
/// class seed therefore picks the class program. When \p Faults is set,
/// faults decide and steps count a quarter as much: on store-file-tight
/// faults are most of an op's time. This is input generation: it runs
/// before set-up and is not timed.
std::string pickSource(unsigned Funcs, uint64_t Seed, uint64_t ClassSeed,
                       bool Faults, unsigned Candidates) {
  Work Target = workOf(corpus::synthesize(Funcs, ClassSeed), Faults);
  auto distance = [&](const Work &W) {
    double D = std::fabs(W.Steps / Target.Steps - 1);
    if (Faults)
      D = std::max(D / 4, std::fabs(W.Faults / Target.Faults - 1));
    return D;
  };
  PRNG SubSeeds(Seed);
  std::string Best;
  double BestDist = 0;
  for (unsigned K = 0; K != Candidates; ++K) {
    std::string Src = corpus::synthesize(Funcs, K ? SubSeeds.next() : Seed);
    double D = distance(workOf(Src, Faults));
    if (K == 0 || D < BestDist) {
      Best = std::move(Src);
      BestDist = D;
    }
  }
  return Best;
}

Module makeModule(const std::string &Source, size_t PageTarget) {
  Module M;
  M.Program = harness::mustBuild(Source);
  vm::RunResult Eager = vm::runProgram(M.Program);
  if (!Eager.Ok)
    reportFatal("perfbench: eager reference run trapped: " + Eager.Trap);
  M.Ref = {Eager.Output, Eager.ExitCode, Eager.Steps};
  M.DecodedBytes = decodedBytes(M.Program);

  store::StoreOptions SO;
  SO.PageTargetBytes = PageTarget;
  pipeline::CodecStats B0 = codec("brisc").snapshot();
  pipeline::CodecStats F0 = codec("flate").snapshot();
  std::string Err;
  std::unique_ptr<store::CodeStore> Built;
  {
    SpanScope S(Probe::local(), SpanKind::Build);
    Built = store::CodeStore::build(M.Program, Chain, SO, Err);
  }
  if (!Built)
    reportFatal("perfbench: store build failed: " + Err);
  M.BriscBuild = minus(codec("brisc").snapshot(), B0);
  M.FlateBuild = minus(codec("flate").snapshot(), F0);
  M.Image = Built->save();
  return M;
}

/// Opens a store over \p Src wrapped in the fetch decorator.
template <class SourceT>
std::unique_ptr<store::CodeStore>
openStore(Result<std::unique_ptr<SourceT>> Src, const store::StoreOptions &SO) {
  if (!Src)
    reportFatal("perfbench: frame source: " + Src.error().message());
  Result<std::unique_ptr<store::CodeStore>> St = store::CodeStore::tryFromSource(
      std::make_unique<TimedSource>(Src.take()), SO);
  if (!St)
    reportFatal("perfbench: store open: " + St.error().message());
  return St.take();
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

uint64_t threadCount() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("Threads:", 0) == 0)
      return std::stoull(Line.substr(8));
  return 0;
}

//===----------------------------------------------------------------------===//
// What a run measured
//===----------------------------------------------------------------------===//

struct Loop {
  std::vector<double> OpMs;       ///< Untraced ops.
  std::vector<double> TracedOpMs; ///< Traced ops (traced runs only).
  uint64_t Attempted = 0, Failed = 0, Mismatches = 0, Completed = 0;
  uint64_t Steps = 0; ///< Summed RunResult::Steps.
  double WallS = 0;

  void record(Verdict V, uint64_t RunSteps) {
    ++Attempted;
    Steps += RunSteps;
    if (V == Verdict::Ok)
      ++Completed;
    else
      ++Failed;
    if (V == Verdict::Mismatch)
      ++Mismatches;
  }
};

/// Store, tier, net and generator counts, summed over the timed loop.
struct Layers {
  uint64_t Hits = 0, Misses = 0, Decodes = 0, Evictions = 0;
  uint64_t FetchRetries = 0, FetchFailures = 0;
  uint64_t ResidentBytes = 0; ///< Gauge at the end.
  store::TierStats TierLoop;  ///< Counter deltas over the timed loop.
  store::TierStats TierWarm;  ///< Warm-up of the last set-up.
  uint64_t RoundTrips = 0, BytesReceived = 0, ServerRequests = 0;
  uint64_t OpenConnectionsEnd = 0;
  std::vector<double> LateMs, QueueMs;
  uint64_t ThreadsPeak = 0;

  void addStore(const store::StoreStats &After, const store::StoreStats &Before) {
    Hits += After.Hits - Before.Hits;
    Misses += After.Misses - Before.Misses;
    Decodes += After.Decodes - Before.Decodes;
    Evictions += After.Evictions - Before.Evictions;
    FetchRetries += After.FetchRetries - Before.FetchRetries;
    FetchFailures += After.FetchFailures - Before.FetchFailures;
    ResidentBytes = After.ResidentBytes;
  }
};

struct Measured {
  TailSpec OpTail{0.9, "p90"};
  TailSpec FaultTail{0.9, "p90"};
  std::vector<double> SetupS;
  std::vector<std::pair<uint64_t, uint64_t>> Containers; ///< (bytes, hash).
  Module Mod; ///< The last set-up's module.
  Loop L;
  std::vector<double> FaultUs; ///< Faulting hook calls (end-to-end).
  uint64_t Resolves = 0, HookCalls = 0, Faults = 0, FetchCalls = 0,
           FetchBytes = 0; ///< Timed-loop thin-timer totals.
  Layers Ly;
};

/// Runs \p SetupOnce SetupRepeats times, timing each from its start.
/// \p Teardown drops the previous set-up first.
template <class SetupFn, class TeardownFn>
void repeatSetup(const RunConfig &C, Measured &M, SetupFn &&SetupOnce,
                 TeardownFn &&Teardown) {
  Probe &P = Probe::local();
  P.Tracing = C.Trace; // Build/open/connect/server-start spans.
  for (unsigned K = 0; K != SetupRepeats; ++K) {
    if (K)
      Teardown();
    uint64_t T0 = nowNs();
    SetupOnce();
    M.SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    M.Containers.emplace_back(M.Mod.Image.size(), fnv1a(M.Mod.Image));
  }
  P.Tracing = false;
}

/// Sums every probe's thin-timer counters into \p M and resets them.
void collectProbes(Measured &M) {
  for (Probe *P : Probe::all()) {
    M.Resolves += P->Resolves;
    M.HookCalls += P->HookCalls;
    M.Faults += P->Faults;
    M.FetchCalls += P->FetchCalls;
    M.FetchBytes += P->FetchBytes;
    M.FaultUs.insert(M.FaultUs.end(), P->FaultUs.begin(), P->FaultUs.end());
    P->resetCounts();
  }
}

void resetProbes() {
  for (Probe *P : Probe::all())
    P->resetCounts();
}

/// Runs ops back to back for \p Seconds on this thread. In a traced run
/// every other op is traced, so the untraced ones give the overhead base.
template <class OpFn>
void closedLoop(const RunConfig &C, const Reference &Ref, Loop &L,
                OpFn &&RunOp) {
  uint64_t T0 = nowNs();
  uint64_t Deadline = T0 + static_cast<uint64_t>(C.Seconds * 1e9);
  uint64_t Id = 0;
  do {
    ++Id;
    bool Traced = C.Trace && Id % 2 == 0;
    uint64_t S = nowNs();
    vm::RunResult R;
    {
      OpScope Op(Id, Traced);
      R = RunOp();
    }
    double Ms = static_cast<double>(nowNs() - S) / 1e6;
    (Traced ? L.TracedOpMs : L.OpMs).push_back(Ms);
    L.record(check(R, Ref), R.Steps);
  } while (nowNs() < Deadline);
  L.WallS = static_cast<double>(nowNs() - T0) / 1e9;
}

//===----------------------------------------------------------------------===//
// store-file-tight and tier-resident: one store, one thread, closed loop
//===----------------------------------------------------------------------===//

struct StoreState {
  Module Mod;
  std::unique_ptr<store::CodeStore> Store;
  std::unique_ptr<vm::FunctionResolver> Inner;
  store::TieredResolver *Tier = nullptr; ///< Inner, when tiered.
  std::unique_ptr<TimedResolver> Rv;

  /// Drops everything in reverse dependency order (resolvers first).
  void reset() {
    Rv.reset();
    Tier = nullptr;
    Inner.reset();
    Store.reset();
    Mod = Module();
  }

  vm::RunResult runOnce() {
    vm::RunOptions O;
    O.Resolver = Rv.get();
    vm::Machine Mach(Store->skeleton(), O);
    return Mach.run();
  }
};

void warmOp(StoreState &S) {
  OpScope Op(0, false);
  Verdict V = check(S.runOnce(), S.Mod.Ref);
  if (V != Verdict::Ok)
    reportFatal("perfbench: warm-up op diverged from the eager run");
}

/// The timed loop over a set-up store, checked against the reference.
void storeLoop(const RunConfig &C, StoreState &S, Measured &M) {
  store::StoreStats Before = S.Store->stats();
  store::TierStats TierBefore = S.Tier ? S.Tier->tierStats() : store::TierStats();
  resetProbes();
  closedLoop(C, S.Mod.Ref, M.L, [&] { return S.runOnce(); });
  collectProbes(M);
  M.Ly.addStore(S.Store->stats(), Before);
  if (S.Tier) {
    store::TierStats A = S.Tier->tierStats();
    M.Ly.TierLoop.NativeSteps = A.NativeSteps - TierBefore.NativeSteps;
    M.Ly.TierLoop.TierTransfers = A.TierTransfers - TierBefore.TierTransfers;
  }
  M.Ly.ThreadsPeak = std::max(M.Ly.ThreadsPeak, threadCount());
}

void runFileTight(const RunConfig &C, Measured &M) {
  // 100-150 ops and ~150k faults in 10 s; p99.9 of faults would leave
  // 150 samples beyond it but swung 14% over ten runs, p99 4%.
  M.OpTail = {0.9, "p90"};
  M.FaultTail = {0.99, "p99"};
  const std::string Path =
      C.WorkDir + "/store-file-tight-" + std::to_string(C.Seed) + ".ccpk";
  const std::string Source = pickSource(700, C.Seed, IccSeed, true, 16);
  StoreState S;
  repeatSetup(
      C, M,
      [&] {
        S.Mod = makeModule(Source, TightPageBytes);
        {
          std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
          Out.write(reinterpret_cast<const char *>(S.Mod.Image.data()),
                    static_cast<std::streamsize>(S.Mod.Image.size()));
          if (!Out)
            reportFatal("perfbench: cannot write " + Path);
        }
        store::StoreOptions SO;
        SO.Shards = 1;
        SO.CacheBudgetBytes = tightBudget(S.Mod.DecodedBytes);
        {
          SpanScope Sp(Probe::local(), SpanKind::Open);
          S.Store = openStore(store::FileFrameSource::open(Path), SO);
        }
        S.Inner = std::make_unique<store::StoreBackedResolver>(*S.Store);
        S.Rv = std::make_unique<TimedResolver>(*S.Inner);
        warmOp(S); // Brings the cache to its steady, thrashing state.
        M.Mod = S.Mod;
      },
      [&] { S.reset(); });
  storeLoop(C, S, M);
  S.reset();
  std::remove(Path.c_str());
}

/// tier-resident's timed loop never faults, so its fault latency comes
/// from cold passes after the loop: each opens a fresh store over the same
/// container and runs the program once through a plain resolver, faulting
/// in every function it calls (whole-function frames from memory).
void coldPasses(Measured &M) {
  constexpr unsigned Passes = 20;
  Probe &P = Probe::local();
  P.resetCounts();
  for (unsigned I = 0; I != Passes; ++I) {
    StoreState S;
    S.Mod = M.Mod;
    store::StoreOptions SO;
    SO.CacheBudgetBytes = ResidentBudget;
    S.Store = openStore(
        store::LocalFrameSource::fromContainerBytes(S.Mod.Image), SO);
    S.Inner = std::make_unique<store::StoreBackedResolver>(*S.Store);
    S.Rv = std::make_unique<TimedResolver>(*S.Inner);
    warmOp(S);
    S.reset();
  }
  M.FaultUs = P.FaultUs;
  P.resetCounts();
}

void runTierResident(const RunConfig &C, Measured &M) {
  // p90, not the p99 these sample counts (1500-2800 ops, ~2400 cold
  // faults) would allow: a 3.6 ms op's p99 tracks the host's millisecond
  // hiccups, and swung 3.8-6.9 ms over ten runs where p90 held within 20%.
  M.OpTail = {0.9, "p90"};
  M.FaultTail = {0.9, "p90"};
  const std::string Source = pickSource(120, C.Seed, WepSeed, false, 16);
  StoreState S;
  repeatSetup(
      C, M,
      [&] {
        S.Mod = makeModule(Source, 0);
        store::StoreOptions SO;
        SO.CacheBudgetBytes = ResidentBudget;
        if (S.Mod.DecodedBytes > SO.CacheBudgetBytes)
          reportFatal("perfbench: tier-resident module exceeds its budget");
        {
          SpanScope Sp(Probe::local(), SpanKind::Open);
          S.Store = openStore(store::LocalFrameSource::fromContainerBytes(
                                  S.Mod.Image),
                              SO);
        }
        store::TierOptions TO;
        TO.HotThreshold = 4;
        auto Tier = std::make_unique<store::TieredResolver>(*S.Store, TO);
        S.Tier = Tier.get();
        S.Inner = std::move(Tier);
        S.Rv = std::make_unique<TimedResolver>(*S.Inner);
        // Warm up until compiles stop: three ops in a row compile nothing.
        uint64_t Compiles = 0;
        for (unsigned Quiet = 0, Ops = 0; Quiet < 3 && Ops < 64; ++Ops) {
          warmOp(S);
          uint64_t Now = S.Tier->tierStats().Compiles;
          Quiet = Now == Compiles ? Quiet + 1 : 0;
          Compiles = Now;
        }
        M.Ly.TierWarm = S.Tier->tierStats();
        M.Mod = S.Mod;
      },
      [&] { S.reset(); });
  storeLoop(C, S, M);
  S.reset();
  coldPasses(M);
}

//===----------------------------------------------------------------------===//
// net-sessions: open-loop client sessions against a loopback server
//===----------------------------------------------------------------------===//

/// Arrival times in [0, Seconds): seeded exponential gaps, scaled so that
/// exactly round(Rate * Seconds) sessions arrive in the window (a Poisson
/// process conditioned on its count, so the offered load is the same for
/// every seed).
std::vector<double> arrivalSchedule(uint64_t Seed, double Rate,
                                    double Seconds) {
  size_t N = std::max<size_t>(1, static_cast<size_t>(std::llround(Rate * Seconds)));
  PRNG R(Seed ^ 0xa5a5f00dull);
  std::vector<double> Gaps(N + 1);
  double Sum = 0;
  for (double &G : Gaps) {
    double U = static_cast<double>(R.next() >> 11) * 0x1.0p-53;
    G = -std::log1p(-U);
    Sum += G;
  }
  std::vector<double> Due(N);
  double Acc = 0;
  for (size_t I = 0; I != N; ++I) {
    Acc += Gaps[I];
    Due[I] = Seconds * Acc / Sum;
  }
  return Due;
}

/// What one worker's sessions added up to.
struct SessionTotals {
  store::StoreStats Store; ///< Counters summed; ResidentBytes = last.
  uint64_t RoundTrips = 0, BytesReceived = 0;
};

Verdict runSession(uint16_t Port, const Module &Mod, SessionTotals &T) {
  Probe &P = Probe::local();
  net::SocketOptions SO;
  SO.Port = Port;
  Result<std::unique_ptr<net::SocketFrameSource>> Src = [&] {
    SpanScope Sp(P, SpanKind::Connect);
    return net::SocketFrameSource::connect(SO);
  }();
  if (!Src)
    return Verdict::Error;
  net::SocketFrameSource *Sock = Src.value().get();

  store::StoreOptions StO;
  StO.CacheBudgetBytes = std::max<size_t>(1u << 20, 2 * Mod.DecodedBytes);
  StO.Retry.RealTime = true;
  Result<std::unique_ptr<store::CodeStore>> St = [&] {
    SpanScope Sp(P, SpanKind::Open);
    return store::CodeStore::tryFromSource(
        std::make_unique<TimedSource>(Src.take()), StO);
  }();
  if (!St)
    return Verdict::Error;
  store::CodeStore &Store = *St.value();
  store::StoreBackedResolver Base(Store);
  TimedResolver Rv(Base);
  vm::RunOptions O;
  O.Resolver = &Rv;
  vm::Machine Mach(Store.skeleton(), O);
  Verdict V = check(Mach.run(), Mod.Ref);

  net::ClientStats CS = Sock->stats();
  T.RoundTrips += CS.RoundTrips;
  T.BytesReceived += CS.BytesReceived;
  store::StoreStats SS = Store.stats();
  T.Store.Hits += SS.Hits;
  T.Store.Misses += SS.Misses;
  T.Store.Decodes += SS.Decodes;
  T.Store.Evictions += SS.Evictions;
  T.Store.FetchRetries += SS.FetchRetries;
  T.Store.FetchFailures += SS.FetchFailures;
  T.Store.ResidentBytes = SS.ResidentBytes;
  return V;
}

struct NetState {
  Module Mod;
  std::unique_ptr<net::FrameServer> Server;
};

void runNetSessions(const RunConfig &C, Measured &M) {
  // 400 sessions and ~39k faults in 10 s; p99.9 of faults swung 10% over
  // ten runs, p99 3%.
  M.OpTail = {0.9, "p90"};
  M.FaultTail = {0.99, "p99"};
  const std::string Source = pickSource(96, C.Seed, WepSeed, false, 8);
  NetState S;
  repeatSetup(
      C, M,
      [&] {
        S.Mod = makeModule(Source, 0);
        Result<std::unique_ptr<store::LocalFrameSource>> Src =
            store::LocalFrameSource::fromContainerBytes(S.Mod.Image);
        if (!Src)
          reportFatal("perfbench: container: " + Src.error().message());
        Result<std::unique_ptr<net::FrameServer>> Srv = [&] {
          SpanScope Sp(Probe::local(), SpanKind::ServerStart);
          return net::FrameServer::start(Src.take(), net::ServerOptions());
        }();
        if (!Srv)
          reportFatal("perfbench: server: " + Srv.error().message());
        S.Server = Srv.take();
        // Two sequential sessions warm the socket path and the codecs.
        for (int I = 0; I != 2; ++I) {
          OpScope Op(0, false);
          SessionTotals Ignored;
          if (runSession(S.Server->port(), S.Mod, Ignored) != Verdict::Ok)
            reportFatal("perfbench: warm-up session failed");
        }
        M.Mod = S.Mod;
      },
      [&] { S = NetState(); });

  std::vector<double> Due = arrivalSchedule(C.Seed, SessionsPerSecond, C.Seconds);
  struct Record {
    double LatencyMs = 0, ServiceMs = 0, QueueMs = 0, LateMs = 0;
    bool Traced = false;
    Verdict V = Verdict::Error;
  };
  std::vector<Record> Recs(Due.size());
  std::vector<SessionTotals> Totals(SessionWorkers);
  std::atomic<size_t> Next{0};
  std::atomic<uint64_t> ThreadsPeak{threadCount()};
  std::vector<uint64_t> EndNs(SessionWorkers, 0);

  net::ServerStats ServerBefore = S.Server->stats();
  uint16_t Port = S.Server->port();
  resetProbes();
  const uint64_t Base = nowNs() + 20'000'000; // Workers start first.
  auto Worker = [&](unsigned W) {
    for (size_t I; (I = Next.fetch_add(1)) < Due.size();) {
      uint64_t DueNs = Base + static_cast<uint64_t>(Due[I] * 1e9);
      uint64_t Pickup = nowNs();
      if (Pickup < DueNs)
        std::this_thread::sleep_for(std::chrono::nanoseconds(DueNs - Pickup));
      uint64_t Start = nowNs();
      Record &R = Recs[I];
      R.Traced = C.Trace && I % 2 == 1;
      {
        OpScope Op(I + 1, R.Traced);
        R.V = runSession(Port, S.Mod, Totals[W]);
      }
      uint64_t End = nowNs();
      R.LatencyMs = static_cast<double>(End - DueNs) / 1e6;
      R.ServiceMs = static_cast<double>(End - Start) / 1e6;
      R.QueueMs = Pickup > DueNs ? static_cast<double>(Pickup - DueNs) / 1e6 : 0;
      R.LateMs = static_cast<double>(Start - std::max(Pickup, DueNs)) / 1e6;
      EndNs[W] = End;
      uint64_t Threads = threadCount();
      uint64_t Seen = ThreadsPeak.load();
      while (Threads > Seen && !ThreadsPeak.compare_exchange_weak(Seen, Threads))
        ;
    }
  };
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W != SessionWorkers; ++W)
    Workers.emplace_back(Worker, W);
  for (std::thread &T : Workers)
    T.join();
  M.L.WallS = static_cast<double>(
                  *std::max_element(EndNs.begin(), EndNs.end()) - Base) /
              1e9;

  // The server notices closed connections asynchronously; let it drain.
  for (int I = 0; I != 5000 && S.Server->stats().OpenConnections; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  net::ServerStats ServerAfter = S.Server->stats();

  collectProbes(M);
  for (const Record &R : Recs) {
    if (C.Trace)
      (R.Traced ? M.L.TracedOpMs : M.L.OpMs).push_back(R.ServiceMs);
    else
      M.L.OpMs.push_back(R.LatencyMs);
    M.Ly.LateMs.push_back(R.LateMs);
    M.Ly.QueueMs.push_back(R.QueueMs);
    M.L.record(R.V, R.V == Verdict::Error ? 0 : S.Mod.Ref.Steps);
  }
  for (const SessionTotals &T : Totals) {
    M.Ly.addStore(T.Store, store::StoreStats());
    M.Ly.RoundTrips += T.RoundTrips;
    M.Ly.BytesReceived += T.BytesReceived;
  }
  M.Ly.ServerRequests = ServerAfter.Requests - ServerBefore.Requests;
  M.Ly.OpenConnectionsEnd = ServerAfter.OpenConnections;
  M.Ly.ThreadsPeak = ThreadsPeak.load();
  S = NetState();
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0; }

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

void reportEndToEnd(const Measured &M, MetricWriter &W) {
  W.add("op_ms_p50", "ms", quantile(M.L.OpMs, 0.5));
  W.add("op_ms_tail", "ms", quantile(M.L.OpMs, M.OpTail.Q));
  W.add("ops_per_s", "1/s", ratio(double(M.L.Completed), M.L.WallS));
  W.add("fault_us_p50", "us", quantile(M.FaultUs, 0.5));
  W.add("fault_us_tail", "us", quantile(M.FaultUs, M.FaultTail.Q));
  W.add("setup_s", "s", quantile(M.SetupS, 0.5));
  W.add("peak_rss_mb", "MB", peakRssMb());
  W.add("container_bytes", "B", double(M.Mod.Image.size()));
}

/// Per-stage decode rates on the workload's own frames, timed around
/// Codec::tryDecompress, per decoded output byte of each stage.
struct StageDecode {
  double FlateNsPerByte = 0, BriscNsPerByte = 0;
};

StageDecode decodeStages(const std::vector<uint8_t> &Image) {
  Result<std::unique_ptr<store::LocalFrameSource>> Src =
      store::LocalFrameSource::fromContainerBytes(Image);
  if (!Src)
    reportFatal("perfbench: container: " + Src.error().message());
  std::vector<std::vector<uint8_t>> Frames;
  for (uint32_t I = 0; I != Src.value()->functionFrameCount(); ++I)
    Frames.push_back(Src.value()->fetchFrame(I).Bytes);
  const pipeline::Codec &Flate = codec("flate"), &Brisc = codec("brisc");
  double FlateNs = 0, BriscNs = 0, FlateOut = 0, BriscOut = 0;
  uint64_t T0 = nowNs();
  do {
    for (const std::vector<uint8_t> &F : Frames) {
      uint64_t A = nowNs();
      Result<std::vector<uint8_t>> Mid = Flate.tryDecompress(F);
      uint64_t B = nowNs();
      if (!Mid)
        reportFatal("perfbench: flate stage: " + Mid.error().message());
      Result<std::vector<uint8_t>> Out = Brisc.tryDecompress(Mid.value());
      uint64_t E = nowNs();
      if (!Out)
        reportFatal("perfbench: brisc stage: " + Out.error().message());
      FlateNs += double(B - A);
      BriscNs += double(E - B);
      FlateOut += double(Mid.value().size());
      BriscOut += double(Out.value().size());
    }
  } while (nowNs() - T0 < 300'000'000);
  return {ratio(FlateNs, FlateOut), ratio(BriscNs, BriscOut)};
}

void reportLayers(const Measured &M, const TraceSummary &T, MetricWriter &W) {
  const Layers &Ly = M.Ly;
  double Ops = double(std::max<uint64_t>(1, M.L.Attempted));

  StageDecode D = decodeStages(M.Mod.Image);
  W.add("pipeline.flate.decode_ns_per_byte", "ns/B", D.FlateNsPerByte);
  W.add("pipeline.brisc.decode_ns_per_byte", "ns/B", D.BriscNsPerByte);
  W.add("pipeline.flate.encode_ns_per_byte", "ns/B",
        ratio(double(M.Mod.FlateBuild.CompressNanos),
              double(M.Mod.FlateBuild.BytesIn)));
  W.add("pipeline.brisc.encode_ns_per_byte", "ns/B",
        ratio(double(M.Mod.BriscBuild.CompressNanos),
              double(M.Mod.BriscBuild.BytesIn)));

  W.add("store.build_ms", "ms", quantile(T.BuildMs, 0.5));
  W.add("store.open_ms", "ms", quantile(T.OpenMs, 0.5));
  W.add("store.resolves", "count/op", M.Resolves / Ops);
  W.add("store.faults", "count/op", M.Faults / Ops);
  W.add("store.decodes", "count/op", Ly.Decodes / Ops);
  W.add("store.evictions", "count/op", Ly.Evictions / Ops);
  W.add("store.hit_rate", "ratio",
        ratio(double(Ly.Hits), double(Ly.Hits + Ly.Misses)));
  W.add("store.fault_self_us_p50", "us", quantile(T.FaultSelfUs, 0.5));
  W.add("store.hit_ns_p50", "ns", quantile(T.HitNs, 0.5));
  double OpNs = 0, FaultNs = 0, RootSelfNs = 0, NativeSelfNs = 0;
  for (const OpLayers &O : T.Ops) {
    OpNs += O.OpNs;
    FaultNs += O.FaultNs;
    RootSelfNs += O.RootSelfNs;
    NativeSelfNs += O.NativeSelfNs;
  }
  double TracedOps = double(std::max<size_t>(1, T.Ops.size()));
  W.add("store.fault_share", "ratio", ratio(FaultNs, OpNs));
  W.add("store.resident_bytes", "B", double(Ly.ResidentBytes));

  W.add("fetch.calls", "count/op", M.FetchCalls / Ops);
  W.add("fetch.bytes", "B/op", M.FetchBytes / Ops);
  W.add("fetch.us_p50", "us", quantile(T.FetchUs, 0.5));
  W.add("fetch.us_tail", "us", quantile(T.FetchUs, M.FaultTail.Q));
  W.add("fetch.retries", "count/op", Ly.FetchRetries / Ops);
  W.add("fetch.failures", "count/op", Ly.FetchFailures / Ops);

  double NativeSteps = double(Ly.TierLoop.NativeSteps) / Ops;
  double VmSteps = double(M.L.Steps) / Ops - NativeSteps;
  double VmSelfNs = RootSelfNs / TracedOps;
  W.add("vm.steps", "count/op", VmSteps);
  W.add("vm.self_ms", "ms", VmSelfNs / 1e6);
  W.add("vm.ns_per_step", "ns", ratio(VmSelfNs, VmSteps));
  W.add("native.enter_ms", "ms", NativeSelfNs / TracedOps / 1e6);
  W.add("native.ns_per_step", "ns", ratio(NativeSelfNs / TracedOps, NativeSteps));
  W.add("native.steps_frac", "ratio", ratio(NativeSteps, NativeSteps + VmSteps));
  W.add("tier.transfers", "count/op", double(Ly.TierLoop.TierTransfers) / Ops);
  W.add("tier.compiles", "count", double(Ly.TierWarm.Compiles));
  W.add("tier.compile_ms", "ms", double(Ly.TierWarm.CompileNanos) / 1e6);

  W.add("net.server_start_ms", "ms", quantile(T.ServerStartMs, 0.5));
  W.add("net.connect_ms_p50", "ms", quantile(T.ConnectMs, 0.5));
  W.add("net.round_trips", "count/op", Ly.RoundTrips / Ops);
  W.add("net.bytes_received", "B/op", Ly.BytesReceived / Ops);
  W.add("net.server_requests", "count/op", Ly.ServerRequests / Ops);
  W.add("net.open_connections_end", "count", double(Ly.OpenConnectionsEnd));
  W.add("proc.threads_peak", "count", double(Ly.ThreadsPeak));
  W.add("gen.late_ms_p99", "ms", quantile(Ly.LateMs, 0.99));
  W.add("gen.queue_ms_p50", "ms", quantile(Ly.QueueMs, 0.5));

  W.add("trace.overhead_frac", "ratio",
        ratio(quantile(M.L.TracedOpMs, 0.5), quantile(M.L.OpMs, 0.5)) - 1);
  W.add("error_rate", "ratio", ratio(double(M.L.Failed), Ops));
}

/// Human-readable context on stderr: sample counts behind each tail, the
/// resource gauges, and how the traced layers reconcile with op time.
void printContext(const RunConfig &C, const Measured &M,
                  const TraceSummary *T) {
  std::fprintf(stderr,
               "perfbench %s seed %llu: %llu ops attempted, %llu failed "
               "(%llu mismatched), error_rate %.6f\n",
               C.Workload.c_str(), (unsigned long long)C.Seed,
               (unsigned long long)M.L.Attempted,
               (unsigned long long)M.L.Failed,
               (unsigned long long)M.L.Mismatches,
               ratio(double(M.L.Failed), double(M.L.Attempted)));
  std::fprintf(stderr,
               "  op tail %s over %zu samples (%zu beyond); fault tail %s "
               "over %zu samples (%zu beyond)\n",
               M.OpTail.Label, M.L.OpMs.size(),
               countBeyond(M.L.OpMs, M.OpTail.Q), M.FaultTail.Label,
               M.FaultUs.size(), countBeyond(M.FaultUs, M.FaultTail.Q));
  std::fprintf(stderr, "  setup_s samples:");
  for (double S : M.SetupS)
    std::fprintf(stderr, " %.3f", S);
  std::fprintf(stderr,
               "\n  gauges: store.resident_bytes %llu, "
               "net.open_connections_end %llu, proc.threads_peak %llu\n",
               (unsigned long long)M.Ly.ResidentBytes,
               (unsigned long long)M.Ly.OpenConnectionsEnd,
               (unsigned long long)M.Ly.ThreadsPeak);
  std::fprintf(stderr, "  op ms p50/p90/p99: %.3f %.3f %.3f; fault us "
                       "p50/p90/p99/p99.9: %.1f %.1f %.1f %.1f\n",
               quantile(M.L.OpMs, 0.5), quantile(M.L.OpMs, 0.9),
               quantile(M.L.OpMs, 0.99), quantile(M.FaultUs, 0.5),
               quantile(M.FaultUs, 0.9), quantile(M.FaultUs, 0.99),
               quantile(M.FaultUs, 0.999));
  double Ops = double(std::max<uint64_t>(1, M.L.Attempted));
  std::fprintf(stderr,
               "  per op: %llu steps, %.1f faults, %.1f resolves, %.1f "
               "hook calls; %zu functions, %zu decoded bytes\n",
               (unsigned long long)M.Mod.Ref.Steps, double(M.Faults) / Ops,
               double(M.Resolves) / Ops, double(M.HookCalls) / Ops,
               M.Mod.Program.Functions.size(), M.Mod.DecodedBytes);
  if (T && !T->Ops.empty()) {
    double Op = 0, Self = 0, Fault = 0, Native = 0;
    for (const OpLayers &O : T->Ops) {
      Op += O.OpNs;
      Self += O.RootSelfNs;
      Fault += O.FaultNs;
      Native += O.NativeSelfNs;
    }
    double Hits = sum(T->HitNs);
    std::fprintf(stderr,
                 "  traced ops %zu (%zu spans): op %.3f ms = vm self %.3f + "
                 "faulting hooks %.3f + hit resolves %.3f + native %.3f + "
                 "rest %.3f\n",
                 T->Ops.size(), T->SpanCount, Op / T->Ops.size() / 1e6,
                 Self / T->Ops.size() / 1e6, Fault / T->Ops.size() / 1e6,
                 Hits / T->Ops.size() / 1e6, Native / T->Ops.size() / 1e6,
                 (Op - Self - Fault - Hits - Native) / T->Ops.size() / 1e6);
  }
}

} // namespace

bool perfbench::isWorkload(const std::string &Name) {
  return Name == "store-file-tight" || Name == "tier-resident" ||
         Name == "net-sessions";
}

RunOutcome perfbench::runWorkload(const RunConfig &C) {
  Measured M;
  if (C.Workload == "store-file-tight")
    runFileTight(C, M);
  else if (C.Workload == "tier-resident")
    runTierResident(C, M);
  else
    runNetSessions(C, M);

  RunOutcome O;
  O.Attempted = M.L.Attempted;
  O.Failed = M.L.Failed;
  O.Correct = M.L.Mismatches == 0;
  for (const auto &Ct : M.Containers)
    if (Ct != M.Containers.front()) {
      std::fprintf(stderr, "perfbench: container differs between set-ups "
                           "of one seed\n");
      O.Correct = false;
    }
  O.ContainerBytes = M.Containers.front().first;
  O.ContainerHash = M.Containers.front().second;

  if (C.Trace) {
    TraceSummary T = summarizeSpans();
    printContext(C, M, &T);
    reportLayers(M, T, O.Metrics);
  } else {
    printContext(C, M, nullptr);
    reportEndToEnd(M, O.Metrics);
  }
  return O;
}
