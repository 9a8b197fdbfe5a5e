//===- bench/bench_paging.cpp - The paging scenario (section 1) ----------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// Reproduces the introduction's motivating measurement: "we have seen
// the CPU idle for most of the time during paging, so compressing pages
// can increase total performance even though the CPU must decompress or
// interpret the page contents."
//
// We replay each engine's code-page reference string through an LRU
// demand-paging simulator at several resident-set sizes, convert faults
// to time with a period-accurate disk model, add measured CPU time, and
// find the crossover where interpreting compressed code wins on total
// time.
//
// Three acts, selectable with --act=N[,N...] (default: all):
//   1  intro paging table (native vs interpreted, LRU simulator)
//   2  decode-on-fault store vs simulator prediction (asserted identity)
//   5  tiered native execution of the hot set (asserted speedup)
//
// Act numbers match the experiment log (EXPERIMENTS.md). The
// deterministic paging claims (E7, E9, E11, E12) are ctest cases, not
// acts.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

#include "brisc/Brisc.h"
#include "brisc/Interp.h"
#include "native/Threaded.h"
#include "sim/Paging.h"
#include "store/CodeStore.h"
#include "store/Resolver.h"
#include "store/Tiered.h"
#include "vm/Encode.h"

#include <set>

using namespace ccomp;
using namespace ccomp::bench;

namespace {

/// A layout that maps every instruction of function I to "page" I, so a
/// PageSize=1 run records a function-granularity reference string — the
/// trace the store's per-function cache actually sees.
vm::CodeLayout functionLayout(const vm::VMProgram &P) {
  vm::CodeLayout L;
  L.FuncBase.reserve(P.Functions.size());
  L.InstrOff.reserve(P.Functions.size());
  for (size_t I = 0; I != P.Functions.size(); ++I) {
    L.FuncBase.push_back(static_cast<uint32_t>(I));
    L.InstrOff.emplace_back(P.Functions[I].Code.size(), 0u);
  }
  L.TotalBytes = static_cast<uint32_t>(P.Functions.size());
  return L;
}

/// Parses --act=N[,N...]; no argument selects every act.
std::set<int> parseActs(int Argc, char **Argv) {
  std::set<int> Acts;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--act=", 0) != 0)
      reportFatal("usage: bench_paging [--act=N[,N...]]  (acts 1, 2, 5)");
    std::string List = Arg.substr(6);
    size_t Pos = 0;
    while (Pos < List.size()) {
      size_t Comma = List.find(',', Pos);
      std::string Tok = List.substr(
          Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
      if (Tok.empty() || Tok.find_first_not_of("0123456789") !=
                             std::string::npos)
        reportFatal("bench_paging: bad act '" + Tok + "'");
      int N = std::atoi(Tok.c_str());
      if (N != 1 && N != 2 && N != 5)
        reportFatal("bench_paging: no act " + Tok + " (acts 1, 2, 5)");
      Acts.insert(N);
      Pos = Comma == std::string::npos ? List.size() : Comma + 1;
    }
  }
  if (Acts.empty())
    Acts = {1, 2, 5};
  return Acts;
}

} // namespace

int main(int Argc, char **Argv) {
  std::set<int> Acts = parseActs(Argc, Argv);
  auto runAct = [&](int N) { return Acts.count(N) != 0; };

  const uint32_t PageSize = 512;
  sim::DiskModel Disk; // 12ms per fault.

  // A program with a large code footprint relative to its running time:
  // the synthetic icc class (calls a spread of its functions once).
  std::string Src = corpus::sizeClassSource("icc");
  vm::VMProgram P = mustBuild(Src);
  const char *ChainSpec = "brisc+flate";

  // The reference result every store-backed act must reproduce.
  vm::RunResult Eager = vm::runProgram(P);
  if (!Eager.Ok)
    reportFatal("eager baseline run failed: " + Eager.Trap);

  size_t DecodedBytes = 0;
  for (const vm::VMFunction &F : P.Functions)
    DecodedBytes += store::decodedCostBytes(F);

  if (runAct(1)) {
    vm::CodeLayout L = vm::nativeLayout(P);
    vm::RunOptions NOpts;
    NOpts.Layout = &L;
    NOpts.PageSize = PageSize;
    vm::RunResult NR = vm::runProgram(P, NOpts);

    brisc::BriscProgram B = brisc::compress(P);
    vm::RunOptions BOpts;
    BOpts.PageSize = PageSize;
    vm::RunResult BR = brisc::interpret(B, BOpts);
    if (!NR.Ok || !BR.Ok)
      reportFatal("paging bench run failed");

    // CPU seconds, measured on the wall clock (native = threaded code).
    native::NProgram N = native::generate(P);
    double NativeCpu = timeStable([&] { native::run(N); }, 0.1);
    double InterpCpu = timeStable([&] { brisc::interpret(B); }, 0.1);

    std::printf("Paging scenario (intro): total time = CPU + fault service\n");
    std::printf("(page %u B, fault %.0f ms; interp CPU %.1fx native)\n\n",
                PageSize, Disk.FaultSeconds * 1000, InterpCpu / NativeCpu);
    // Distinct pages = compulsory (cold-start) faults; the warm columns
    // exclude them (steady-state behaviour once the program has loaded).
    uint64_t NDistinct = NR.PagesTouched, BDistinct = BR.PagesTouched;

    std::printf("%8s | %10s %10s | %10s %10s | %10s %10s\n", "resident",
                "nat cold s", "int cold s", "nat warm s", "int warm s",
                "cold win", "warm win");
    hr();
    for (unsigned Resident :
         {4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
      sim::PagingResult PN = sim::simulateLRU(NR.PageTrace, Resident);
      sim::PagingResult PB = sim::simulateLRU(BR.PageTrace, Resident);
      sim::TotalTime TN = sim::totalTime(NativeCpu, PN, Disk);
      sim::TotalTime TB = sim::totalTime(InterpCpu, PB, Disk);
      double NWarm = NativeCpu +
                     double(PN.Faults > NDistinct ? PN.Faults - NDistinct
                                                  : 0) *
                         Disk.FaultSeconds;
      double BWarm = InterpCpu +
                     double(PB.Faults > BDistinct ? PB.Faults - BDistinct
                                                  : 0) *
                         Disk.FaultSeconds;
      std::printf("%8u | %10.3f %10.3f | %10.3f %10.3f | %10s %10s\n",
                  Resident, TN.total(), TB.total(), NWarm, BWarm,
                  TB.total() < TN.total() ? "compressed" : "native",
                  BWarm < NWarm ? "compressed" : "native");
    }
    hr();
    std::printf("\nexpected shape: under memory pressure the compressed "
                "form wins (fewer, denser\npages to fault); with ample "
                "memory and a warm cache native wins (only the\n"
                "interpretation overhead remains)\n");
  }

  // Second act: the simulator's prediction against the real thing. The
  // decode-on-fault CodeStore executes the same program out of one
  // compressed page per function under a byte budget; the simulator
  // replays a function-granularity reference string through a
  // uniform-slot LRU. Store misses should track predicted faults, with
  // the gap owed to unequal function sizes.
  if (runAct(2)) {
    std::string Err;
    std::unique_ptr<store::CodeStore> Built =
        store::CodeStore::build(P, ChainSpec, store::StoreOptions(), Err);
    if (!Built)
      reportFatal("store build failed: " + Err);
    std::vector<uint8_t> Image = Built->save();

    vm::CodeLayout FL = functionLayout(P);
    vm::RunOptions FOpts;
    FOpts.Layout = &FL;
    FOpts.PageSize = 1;
    vm::RunResult FR = vm::runProgram(P, FOpts);
    if (!FR.Ok)
      reportFatal("function-trace run failed");

    size_t MeanCost = DecodedBytes / P.Functions.size();

    std::printf("\nDecode-on-fault store vs simulator (chain %s, %zu funcs, "
                "%zu -> %zu bytes)\n",
                ChainSpec, P.Functions.size(), DecodedBytes,
                Built->frameBytes());
    std::printf("%8s %12s | %10s %10s | %10s %10s\n", "resident", "budget B",
                "sim fault", "real miss", "hit rate", "decode ms");
    hr();
    for (unsigned Resident : {2u, 4u, 8u, 16u, 32u, 64u}) {
      if (Resident > P.Functions.size())
        break;
      uint64_t SimFaults = sim::simulateLRU(FR.PageTrace, Resident).Faults;

      store::StoreOptions SO;
      SO.Shards = 1; // One LRU list, same policy shape as the simulator.
      SO.CacheBudgetBytes = Resident * MeanCost;
      Result<std::unique_ptr<store::CodeStore>> L =
          store::CodeStore::tryLoad(Image, SO);
      if (!L.ok())
        reportFatal("store load failed: " + L.error().message());
      std::unique_ptr<store::CodeStore> S = L.take();

      vm::RunResult R = store::runFromStore(*S);
      if (!R.Ok || R.Output != Eager.Output || R.ExitCode != Eager.ExitCode)
        reportFatal("store-backed run diverged: " + R.Trap);
      store::StoreStats St = S->stats();
      std::printf("%8u %12zu | %10llu %10llu | %9.1f%% %10.2f\n", Resident,
                  SO.CacheBudgetBytes, (unsigned long long)SimFaults,
                  (unsigned long long)St.Misses, St.hitRate() * 100,
                  double(St.DecodeNanos) / 1e6);
    }
    hr();
  }

  // Fifth act (the tier payoff, asserted): on the hot-loop workload a
  // persistent TieredResolver — warm heat counters, compiled units kept
  // across reps, fresh Machine per rep, exactly how a resident runtime
  // would serve repeated requests — must beat interpret-only execution
  // out of the same store on the wall clock, and must produce the
  // byte-identical RunResult it promises.
  if (runAct(5)) {
    std::string Err;
    vm::VMProgram WP = mustBuild(corpus::sizeClassSource("wep"));
    vm::RunResult WEager = vm::runProgram(WP);
    if (!WEager.Ok)
      reportFatal("tiered act: eager wep run failed: " + WEager.Trap);

    // Two stores from one image so the tier's heat/stats cannot bleed
    // into the interpret-only baseline.
    std::unique_ptr<store::CodeStore> Built =
        store::CodeStore::build(WP, ChainSpec, store::StoreOptions(), Err);
    if (!Built)
      reportFatal("tiered act: store build failed: " + Err);
    std::vector<uint8_t> Image = Built->save();
    auto loadStore = [&]() {
      Result<std::unique_ptr<store::CodeStore>> L =
          store::CodeStore::tryLoad(Image, store::StoreOptions());
      if (!L.ok())
        reportFatal("tiered act: store load failed: " + L.error().message());
      return L.take();
    };
    std::unique_ptr<store::CodeStore> SInterp = loadStore();
    std::unique_ptr<store::CodeStore> STier = loadStore();

    store::TierOptions TO;
    TO.HotThreshold = 4;
    store::TieredResolver Rv(*STier, TO);
    auto tieredOnce = [&]() {
      vm::RunOptions O;
      O.Resolver = &Rv;
      vm::Machine M(STier->skeleton(), O);
      return M.run();
    };

    // Correctness before speed: the tiered result must equal eager
    // interpretation bit for bit, including the step count.
    vm::RunResult TR = tieredOnce();
    if (!TR.Ok || TR.Output != WEager.Output ||
        TR.ExitCode != WEager.ExitCode || TR.Steps != WEager.Steps)
      reportFatal("tiered act: tiered run diverged from eager: " + TR.Trap);

    double InterpS =
        timeStable([&] { store::runFromStore(*SInterp); }, 0.2);
    double TieredS = timeStable([&] { tieredOnce(); }, 0.2);

    store::TierStats TS = Rv.tierStats();
    double Speedup = InterpS / TieredS;
    std::printf("\nTiered execution (wep, chain %s, hot threshold %llu)\n",
                ChainSpec, (unsigned long long)TO.HotThreshold);
    std::printf("  interpret-only: %.4f s/run, tiered: %.4f s/run "
                "(%.2fx), %llu compiles, %llu native steps\n",
                InterpS, TieredS, Speedup,
                (unsigned long long)TS.Compiles,
                (unsigned long long)TS.NativeSteps);
    if (TS.Compiles == 0)
      reportFatal("tiered act: nothing compiled; the tier never engaged");
    if (TieredS >= InterpS)
      reportFatal("tiered act: tiered wall time is not strictly below "
                  "interpret-only");
  }

  return 0;
}
