//===- bench/bench_remote_paging.cpp - Remote demand paging (section 1/4) ------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// The mobile-code delivery scenario at per-function granularity: instead
// of downloading a whole module before the first instruction runs
// (bench_delivery), the client opens a store session over the link and
// faults compressed function frames in on demand. Transfer time is
// virtual (sim::Link through a SimulatedRemoteFrameSource), decode time
// is measured, and the two are reported separately: total time is the
// measured run (interpretation and decode) plus the fetch time.
//
// Acts:
//   1. link x form grid — whole-module wire delivery vs demand-paged
//      stores (brisc, vm-compact+flate) over every link preset. Demand
//      paging starts useful work after fetching only the functions the
//      run touches; the wire form must download everything first but
//      then pays no per-fault latency.
//   2. flaky-link sweep — the same store over a modem that corrupts,
//      truncates, or times out a growing fraction of fetch attempts.
//      Retries mask every transient (the run stays byte-identical); the
//      bill shows up purely as virtual transfer time and retry counts.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

#include "brisc/Brisc.h"
#include "native/Threaded.h"
#include "sim/Transport.h"
#include "store/CodeStore.h"
#include "store/FrameSource.h"
#include "store/Resolver.h"
#include "wire/Wire.h"

using namespace ccomp;
using namespace ccomp::bench;

namespace {

const sim::Link Links[] = {sim::modem28k(), sim::isdn128k(),
                           sim::ethernet10M(), sim::fast100M()};

struct StoreForm {
  const char *Chain;
  std::vector<uint8_t> Image;
};

} // namespace

int main() {
  std::string Src = corpus::sizeClassSource("icc");
  std::unique_ptr<ir::Module> M = mustCompile(Src);
  vm::VMProgram P = mustBuild(Src);
  vm::RunResult Eager = vm::runProgram(P);
  if (!Eager.Ok)
    reportFatal("eager run failed: " + Eager.Trap);

  // Whole-module wire delivery: download everything, then decompress +
  // recompile to runnable native code (measured client cost).
  std::vector<uint8_t> Wire = wire::compress(*M);
  double WireClientSec = timeIt([&] {
    std::string Err;
    std::unique_ptr<ir::Module> M2 = wire::decompress(Wire, Err);
    if (!M2)
      reportFatal("wire decompress failed: " + Err);
    codegen::Result CG = codegen::generate(*M2);
    if (!CG.ok())
      reportFatal("wire recompile failed");
    native::generate(CG.P);
  });

  // Demand-paged store forms.
  StoreForm Forms[] = {{"brisc", {}}, {"vm-compact+flate", {}}};
  size_t DecodedBytes = 0;
  for (const vm::VMFunction &F : P.Functions)
    DecodedBytes += store::decodedCostBytes(F);
  for (StoreForm &F : Forms) {
    std::string Err;
    std::unique_ptr<store::CodeStore> S =
        store::CodeStore::build(P, F.Chain, store::StoreOptions(), Err);
    if (!S)
      reportFatal(std::string("store build failed: ") + Err);
    F.Image = S->save();
  }
  // Enough budget for the working set, far below the whole program.
  const size_t Budget = DecodedBytes / 4;

  auto RunStore = [&](const StoreForm &F, const sim::Link &L,
                      double FailRate, uint64_t Seed, bool Print) {
    store::RemoteOptions RO;
    RO.Link = L;
    RO.Latency = store::LatencyMode::Batched; // One session per run.
    RO.TransientFailureRate = FailRate;
    RO.FaultSeed = Seed;
    store::StoreOptions SO;
    SO.CacheBudgetBytes = Budget;
    SO.Retry.MaxAttempts = 16;
    Result<std::unique_ptr<store::LocalFrameSource>> Origin =
        store::LocalFrameSource::fromContainerBytes(F.Image);
    if (!Origin.ok())
      reportFatal("store image unreadable: " + Origin.error().message());
    Result<std::unique_ptr<store::CodeStore>> LS = store::CodeStore::tryFromSource(
        std::make_unique<store::SimulatedRemoteFrameSource>(Origin.take(), RO),
        SO);
    if (!LS.ok())
      reportFatal("remote store open failed: " + LS.error().message());
    std::unique_ptr<store::CodeStore> S = LS.take();

    vm::RunResult R;
    double Cpu = timeIt([&] { R = store::runFromStore(*S); });
    if (!R.Ok || R.Output != Eager.Output || R.ExitCode != Eager.ExitCode)
      reportFatal("remote store run diverged: " + R.Trap);
    store::StoreStats St = S->stats();
    double FetchS = double(St.FetchVirtualNanos) / 1e9;
    double DecodeS = double(St.DecodeNanos) / 1e9;
    if (Print)
      std::printf("  %-18s %10zu %12.3f %12.4f %12.3f\n", F.Chain,
                  F.Image.size(), FetchS, DecodeS, Cpu + FetchS);
    return St;
  };

  std::printf("Remote demand paging vs whole-module delivery "
              "(icc size class, budget %zu B)\n", Budget);
  std::printf("(store fetch time is virtual link time: transfer + retry "
              "backoff; decode is measured)\n\n");
  for (const sim::Link &L : Links) {
    std::printf("link: %s\n", L.Name);
    std::printf("  %-18s %10s %12s %12s %12s\n", "form", "bytes",
                "fetch s", "decode s", "total s");
    double WireFetch = L.transferSeconds(Wire.size());
    std::printf("  %-18s %10zu %12.3f %12.4f %12.3f\n", "wire",
                Wire.size(), WireFetch, WireClientSec,
                WireFetch + WireClientSec);
    for (const StoreForm &F : Forms)
      RunStore(F, L, 0.0, 0xBE9C, /*Print=*/true);
    std::printf("\n");
  }
  std::printf("expected shape: the wire module is far denser than "
              "per-function frames, so\nwhole-module delivery wins this "
              "run (it touches most of the program and the\ntight budget "
              "forces refetches); the store's edge is elsewhere — it "
              "never\ndownloads untouched functions, starts running "
              "after one frame, and keeps\nfetch time (virtual) "
              "separated from decode time (measured) per row\n\n");

  // Act 2: the same store over an increasingly unreliable modem.
  const StoreForm &Flaky = Forms[1]; // vm-compact+flate
  std::printf("Flaky 28.8k modem, %s store: retries mask transients, "
              "the bill is virtual time\n", Flaky.Chain);
  std::printf("  %-10s %12s %12s %12s %12s\n", "fail rate", "attempts",
              "retries", "fetch s", "failures");
  for (double Rate : {0.0, 0.05, 0.10, 0.30}) {
    store::StoreStats St =
        RunStore(Flaky, sim::modem28k(), Rate, 0xF1A6, /*Print=*/false);
    std::printf("  %9.0f%% %12llu %12llu %12.3f %12llu\n", Rate * 100,
                (unsigned long long)St.FetchAttempts,
                (unsigned long long)St.FetchRetries,
                double(St.FetchVirtualNanos) / 1e9,
                (unsigned long long)St.FetchFailures);
  }
  std::printf("\nexpected shape: every run is byte-identical to eager "
              "execution; rising fault\nrates only raise attempts and "
              "virtual seconds, never failures\n");
  return 0;
}
