//===- examples/multi_tenant_vm.cpp - Shared frame registry serving -------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// The multi-tenant serving scenario: N independent CodeStore views of
// the same compressed module share one process-wide FrameRegistry, so a
// function decoded for one tenant is a warm hit for every other — one
// decode, one resident copy, one byte budget, no matter how many
// tenants run. The example contrasts that with N fully private stores
// (N decodes, N resident copies), shows per-tenant vs registry-global
// stats attribution, and demonstrates isolation: tenants of a
// *different* module share the registry's budget but never its frames.
//
//   $ ./multi_tenant_vm [chain]          (default chain: brisc+flate)
//
//===----------------------------------------------------------------------===//

#include "CorpusUtil.h"

#include "sim/Paging.h"
#include "store/CodeStore.h"
#include "store/FrameRegistry.h"
#include "store/Resolver.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace ccomp;
using namespace ccomp::harness;

namespace {

/// Loads one tenant view of \p Image over \p Reg (private when null).
std::unique_ptr<store::CodeStore>
loadTenant(const std::vector<uint8_t> &Image,
           std::shared_ptr<store::FrameRegistry> Reg) {
  store::StoreOptions Opts;
  Opts.SharedRegistry = std::move(Reg);
  Result<std::unique_ptr<store::CodeStore>> R =
      store::CodeStore::tryLoad(Image, Opts);
  if (!R.ok()) {
    std::printf("tenant load failed: %s\n", R.error().message().c_str());
    return nullptr;
  }
  return R.take();
}

} // namespace

int main(int argc, char **argv) {
  std::string Chain = argc > 1 ? argv[1] : "brisc+flate";

  std::printf("building the corpus suite program...\n");
  vm::VMProgram P = suiteProgram();
  size_t DecodedBytes = 0;
  for (const vm::VMFunction &F : P.Functions)
    DecodedBytes += store::decodedCostBytes(F);

  vm::RunResult Eager = vm::runProgram(P);
  if (!Eager.Ok) {
    std::printf("eager run trapped: %s\n", Eager.Trap.c_str());
    return 1;
  }

  std::string Err;
  std::unique_ptr<store::CodeStore> Built =
      store::CodeStore::build(P, Chain, store::StoreOptions(), Err);
  if (!Built) {
    std::printf("store build failed: %s\n", Err.c_str());
    return 1;
  }
  std::vector<uint8_t> Image = Built->save();
  std::printf("%u function(s), %zu decoded bytes, container hash "
              "%016llx\n\n",
              Built->functionCount(), DecodedBytes,
              (unsigned long long)Built->containerHash());

  // Tenant sweep: N views over one shared registry vs N private stores.
  // The registry's decode count stays flat as tenants are added — the
  // first tenant decodes, the rest hit — while private serving decodes
  // N times and holds N resident copies.
  sim::DiskModel Disk;
  bool AllMatch = true;
  std::printf("tenant sweep (budget %zu B, shared vs private):\n",
              DecodedBytes * 2);
  std::printf("%7s | %16s | %16s | %10s\n", "tenants",
              "shared dec/resB", "private dec/resB", "est shr s");
  hr();
  for (unsigned N : {1u, 2u, 4u, 8u}) {
    store::RegistryOptions RO;
    RO.CacheBudgetBytes = DecodedBytes * 2;
    auto Reg = std::make_shared<store::FrameRegistry>(RO);

    std::vector<std::unique_ptr<store::CodeStore>> Shared;
    for (unsigned I = 0; I != N; ++I) {
      Shared.push_back(loadTenant(Image, Reg));
      if (!Shared.back())
        return 1;
    }
    double Cpu = timeIt([&] {
      for (auto &S : Shared) {
        vm::RunResult R = store::runFromStore(*S);
        if (!R.Ok || R.Output != Eager.Output ||
            R.ExitCode != Eager.ExitCode || R.Steps != Eager.Steps)
          AllMatch = false;
      }
    });
    store::RegistryStats RS = Reg->stats();

    // The private control: same budget *per store*, no sharing.
    uint64_t PrivDecodes = 0, PrivResident = 0;
    for (unsigned I = 0; I != N; ++I) {
      store::StoreOptions Opts;
      Opts.CacheBudgetBytes = DecodedBytes * 2;
      std::unique_ptr<store::CodeStore> S;
      {
        Result<std::unique_ptr<store::CodeStore>> R =
            store::CodeStore::tryLoad(Image, Opts);
        if (!R.ok())
          return 1;
        S = R.take();
      }
      vm::RunResult R = store::runFromStore(*S);
      if (!R.Ok || R.Output != Eager.Output)
        AllMatch = false;
      store::StoreStats St = S->stats();
      PrivDecodes += St.Decodes;
      PrivResident += St.ResidentBytes;
    }
    sim::TotalTime T =
        sim::storeTotalTime(Cpu, RS.Decodes, RS.DecodeNanos, Disk);
    std::printf("%7u | %6llu %9llu | %6llu %9llu | %10.3f\n", N,
                (unsigned long long)RS.Decodes,
                (unsigned long long)RS.ResidentBytes,
                (unsigned long long)PrivDecodes,
                (unsigned long long)PrivResident, T.total());
  }
  hr();

  // Per-tenant attribution: two tenants over one registry, run one
  // after the other. Each tenant's StoreStats carries only its own
  // traffic; the registry's decode bill is global; and resetting one
  // tenant's stats leaves the other's — and the registry's — intact.
  {
    store::RegistryOptions RO;
    RO.CacheBudgetBytes = DecodedBytes * 2;
    auto Reg = std::make_shared<store::FrameRegistry>(RO);
    std::unique_ptr<store::CodeStore> A = loadTenant(Image, Reg);
    std::unique_ptr<store::CodeStore> B = loadTenant(Image, Reg);
    if (!A || !B)
      return 1;
    (void)store::runFromStore(*A);
    (void)store::runFromStore(*B);
    store::StoreStats SA = A->stats(), SB = B->stats();
    std::printf("\nattribution (tenant A ran first, then B):\n"
                "  A: %llu miss(es), %llu hit(s)\n"
                "  B: %llu miss(es), %llu hit(s)   <- served by A's decodes\n"
                "  registry: %llu decode(s) across %llu module(s)\n",
                (unsigned long long)SA.Misses, (unsigned long long)SA.Hits,
                (unsigned long long)SB.Misses, (unsigned long long)SB.Hits,
                (unsigned long long)Reg->stats().Decodes,
                (unsigned long long)Reg->stats().Modules);
    A->resetStats();
    std::printf("  after A->resetStats(): A misses %llu, B misses %llu, "
                "registry decodes %llu\n",
                (unsigned long long)A->stats().Misses,
                (unsigned long long)B->stats().Misses,
                (unsigned long long)Reg->stats().Decodes);
    if (B->stats().Misses != SB.Misses)
      AllMatch = false;
  }

  // Isolation: a *different* module (different container hash) joining
  // the same registry shares the byte budget, never the frames — its
  // keys cannot collide with the first module's.
  {
    vm::VMProgram Q = suiteProgram();
    for (vm::VMFunction &F : Q.Functions)
      F.Name += "@v2"; // Different bytes -> different container hash.
    std::unique_ptr<store::CodeStore> OtherBuilt =
        store::CodeStore::build(Q, Chain, store::StoreOptions(), Err);
    if (!OtherBuilt) {
      std::printf("second module build failed: %s\n", Err.c_str());
      return 1;
    }
    store::RegistryOptions RO;
    RO.CacheBudgetBytes = DecodedBytes * 4;
    auto Reg = std::make_shared<store::FrameRegistry>(RO);
    std::unique_ptr<store::CodeStore> A = loadTenant(Image, Reg);
    std::unique_ptr<store::CodeStore> B =
        loadTenant(OtherBuilt->save(), Reg);
    if (!A || !B)
      return 1;
    (void)store::runFromStore(*A);
    (void)store::runFromStore(*B);
    store::RegistryStats RS = Reg->stats();
    std::printf("\nisolation: modules %llu, registry decodes %llu "
                "(= both modules decoded separately), hashes %016llx vs "
                "%016llx\n",
                (unsigned long long)RS.Modules,
                (unsigned long long)RS.Decodes,
                (unsigned long long)A->containerHash(),
                (unsigned long long)B->containerHash());
    if (A->containerHash() == B->containerHash())
      AllMatch = false;
  }

  if (!AllMatch) {
    std::printf("\nERROR: shared-registry execution diverged\n");
    return 1;
  }
  std::printf("\nevery tenant, shared or private, produced byte-identical "
              "output to the eager run\n");
  return 0;
}
