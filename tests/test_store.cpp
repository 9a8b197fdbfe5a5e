//===- tests/test_store.cpp - Demand-paged compressed-code store ---------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// The store's promises: execution out of the decode-on-fault cache is
// byte-for-byte identical to eager full decode for every per-function
// codec at any budget; eviction follows LRU recency and honors pins;
// N concurrent faults on one function perform exactly one decode; and a
// corrupt frame fails its own faults recoverably while every other
// function stays servable.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "corpus/Corpus.h"
#include "pipeline/Codec.h"
#include "pipeline/Pipeline.h"
#include "store/CodeStore.h"
#include "store/Resolver.h"
#include "support/ThreadPool.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <thread>

using namespace ccomp;
using namespace ccomp::store;
using namespace ccomp::test;

namespace {

std::unique_ptr<CodeStore> mustBuildStore(const vm::VMProgram &P,
                                          const std::string &Chain,
                                          StoreOptions Opts) {
  std::string Err;
  std::unique_ptr<CodeStore> S = CodeStore::build(P, Chain, Opts, Err);
  EXPECT_NE(S, nullptr) << Chain << ": " << Err;
  return S;
}

// A registered passthrough codec whose decode can be slowed on demand,
// to widen the single-flight race window without slowing other tests.
std::atomic<bool> SlowDecode{false};

class SlowRawCodec final : public pipeline::Codec {
public:
  const char *name() const override { return "slow-raw"; }
  const char *description() const override {
    return "test passthrough with a switchable decode delay";
  }
  pipeline::PayloadKind payloadKind() const override {
    return pipeline::PayloadKind::Raw;
  }

protected:
  std::vector<uint8_t> compressImpl(ByteSpan P) const override {
    return P.toVector();
  }
  Result<std::vector<uint8_t>> tryDecompressImpl(ByteSpan F) const override {
    if (SlowDecode.load(std::memory_order_relaxed))
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return F.toVector();
  }
};

void ensureSlowRawRegistered() {
  static bool Done = [] {
    pipeline::Registry::instance().add(std::make_unique<SlowRawCodec>());
    return true;
  }();
  (void)Done;
}

// Per-function chains under test; iterating the registry would also pick
// up test codecs registered by other cases.
const char *const PerFunctionChains[] = {"flate", "vm-compact", "brisc",
                                         "brisc+flate", "vm-compact+flate"};

TEST(Store, BuildSaveLoadRoundTrip) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  std::unique_ptr<CodeStore> S =
      mustBuildStore(P, "brisc+flate", StoreOptions());
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->functionCount(), P.Functions.size());
  EXPECT_EQ(S->chainSpec(), "brisc+flate");
  EXPECT_GT(S->frameBytes(), 0u);
  for (uint32_t I = 0; I != S->functionCount(); ++I)
    EXPECT_EQ(S->functionName(I), P.Functions[I].Name);

  std::vector<uint8_t> Image = S->save();
  Result<std::unique_ptr<CodeStore>> Back =
      CodeStore::tryLoad(Image, StoreOptions());
  ASSERT_TRUE(Back.ok()) << Back.error().message();
  std::unique_ptr<CodeStore> L = Back.take();
  EXPECT_EQ(L->functionCount(), S->functionCount());
  EXPECT_EQ(L->chainSpec(), "brisc+flate");
  EXPECT_EQ(L->frameBytes(), S->frameBytes());
  EXPECT_EQ(L->skeleton().Entry, P.Entry);
  EXPECT_EQ(L->skeleton().Globals.size(), P.Globals.size());

  // Corrupt containers fail typed at load, never abort.
  for (size_t Keep : {size_t(0), size_t(5), Image.size() / 2}) {
    std::vector<uint8_t> Cut(Image.begin(), Image.begin() + Keep);
    EXPECT_FALSE(CodeStore::tryLoad(Cut, StoreOptions()).ok())
        << "keep=" << Keep;
  }
}

TEST(Store, ColdMissThenWarmHit) {
  vm::VMProgram P = buildVM(syntheticSource(4));
  std::unique_ptr<CodeStore> S = mustBuildStore(P, "flate", StoreOptions());
  EXPECT_FALSE(S->isResident(0));
  const size_t Len = P.Functions[0].Code.size();

  // The default page target keeps each function on one page, so the
  // span of instruction 0 is the whole body.
  Result<vm::CodeSpan> Cold = S->faultSpan(0, 0);
  ASSERT_TRUE(Cold.ok()) << Cold.error().message();
  EXPECT_EQ(*Cold.value().Name, P.Functions[0].Name);
  EXPECT_EQ(Cold.value().Begin, 0u);
  EXPECT_EQ(Cold.value().End, Len);
  EXPECT_TRUE(S->isResident(0));

  Result<vm::CodeSpan> Warm = S->faultSpan(0, 0);
  ASSERT_TRUE(Warm.ok());
  EXPECT_EQ(Warm.value().Keep.get(), Cold.value().Keep.get())
      << "hit must not decode";

  StoreStats St = S->stats();
  EXPECT_EQ(St.Misses, 1u);
  EXPECT_EQ(St.Decodes, 1u);
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.DecodeErrors, 0u);
  EXPECT_EQ(St.ResidentFunctions, 1u);
  EXPECT_EQ(St.ResidentBytes,
            sizeof(vm::VMFunction) + Len * sizeof(vm::Instr))
      << "a resident page is bare code";
  EXPECT_GT(St.DecodeNanos, 0u);
  EXPECT_DOUBLE_EQ(St.hitRate(), 0.5);

  S->resetStats();
  StoreStats R = S->stats();
  EXPECT_EQ(R.Hits + R.Misses + R.Decodes, 0u);
  EXPECT_EQ(R.ResidentFunctions, 1u) << "gauges survive resetStats";
  EXPECT_EQ(R.ResidentBytes, St.ResidentBytes);

  // fault() assembles the full body from the resident page: a hit.
  Result<std::shared_ptr<const vm::VMFunction>> Body = S->fault(0);
  ASSERT_TRUE(Body.ok()) << Body.error().message();
  EXPECT_EQ(Body.value()->Name, P.Functions[0].Name);
  EXPECT_EQ(Body.value()->LabelPos, P.Functions[0].LabelPos);
  EXPECT_EQ(Body.value()->Code.size(), Len);
  EXPECT_EQ(S->stats().Decodes, 0u);
  EXPECT_EQ(S->stats().Hits, 1u);
}

// The acceptance bar: a store-backed run is byte-for-byte the eager run,
// for every per-function codec, at a generous budget and at a 1-byte
// budget (which holds exactly the most recently faulted function).
TEST(Store, ExecutionMatchesEagerAtAnyBudget) {
  vm::VMProgram P = buildVM(syntheticSource(10));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok) << Eager.Trap;

  for (const char *Chain : PerFunctionChains) {
    std::unique_ptr<CodeStore> Built =
        mustBuildStore(P, Chain, StoreOptions());
    ASSERT_NE(Built, nullptr);
    std::vector<uint8_t> Image = Built->save();
    for (size_t Budget : {size_t(16) << 20, size_t(1)}) {
      StoreOptions Opts;
      Opts.CacheBudgetBytes = Budget;
      Result<std::unique_ptr<CodeStore>> L = CodeStore::tryLoad(Image, Opts);
      ASSERT_TRUE(L.ok()) << Chain << ": " << L.error().message();
      std::unique_ptr<CodeStore> S = L.take();

      vm::RunResult R = runFromStore(*S);
      EXPECT_TRUE(R.Ok) << Chain << " budget=" << Budget << ": " << R.Trap;
      EXPECT_EQ(R.ExitCode, Eager.ExitCode) << Chain << " budget=" << Budget;
      EXPECT_EQ(R.Output, Eager.Output) << Chain << " budget=" << Budget;
      EXPECT_EQ(R.Steps, Eager.Steps) << Chain << " budget=" << Budget;

      StoreStats St = S->stats();
      EXPECT_GE(St.Misses, 1u) << Chain;
      if (Budget == size_t(1))
        EXPECT_GT(St.Evictions, 0u)
            << Chain << ": a 1-byte budget must be evicting";
    }
  }
}

// Same bar on a real corpus program (its checksum output makes Output
// equality meaningful), default budget.
TEST(Store, CorpusProgramMatchesEagerForEveryChain) {
  const corpus::Program &CP = corpus::programs().front();
  vm::VMProgram P = buildVM(CP.Source);
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok) << CP.Name << ": " << Eager.Trap;
  ASSERT_FALSE(Eager.Output.empty()) << "corpus programs print a checksum";

  for (const char *Chain : PerFunctionChains) {
    std::unique_ptr<CodeStore> S = mustBuildStore(P, Chain, StoreOptions());
    ASSERT_NE(S, nullptr);
    vm::RunResult R = runFromStore(*S);
    EXPECT_TRUE(R.Ok) << Chain << ": " << R.Trap;
    EXPECT_EQ(R.Output, Eager.Output) << Chain;
    EXPECT_EQ(R.ExitCode, Eager.ExitCode) << Chain;
    EXPECT_EQ(R.Steps, Eager.Steps) << Chain;
  }
}

TEST(Store, ModuleGranularityCodecRejected) {
  vm::VMProgram P = buildVM(syntheticSource(3));
  std::string Err;
  EXPECT_EQ(CodeStore::build(P, "wire", StoreOptions(), Err), nullptr);
  EXPECT_NE(Err.find("wire"), std::string::npos) << Err;

  // A container claiming a module chain is rejected at load too. Frame 0
  // carries the manifest magic ("CCSM") so the refusal under test is the
  // chain kind, not the missing-manifest check.
  std::vector<uint8_t> Fake = pipeline::packContainer(
      "wire", {std::vector<uint8_t>{0x43, 0x43, 0x53, 0x4D},
               std::vector<uint8_t>{4, 5}});
  Result<std::unique_ptr<CodeStore>> L =
      CodeStore::tryLoad(Fake, StoreOptions());
  ASSERT_FALSE(L.ok());
  EXPECT_NE(L.error().message().find("wire"), std::string::npos);
}

TEST(Store, EvictionFollowsLruRecency) {
  vm::VMProgram P = buildVM(syntheticSource(6));
  ASSERT_GE(P.Functions.size(), 3u);
  // One page per function, and a decoded page is bare code: its cost is
  // the body struct plus the eager function's instructions.
  auto PageCost = [&](size_t Fn) {
    return sizeof(vm::VMFunction) +
           P.Functions[Fn].Code.size() * sizeof(vm::Instr);
  };
  size_t C0 = PageCost(0);
  size_t C1 = PageCost(1);
  size_t C2 = PageCost(2);

  StoreOptions Opts;
  Opts.Shards = 1; // One shard so all three ids share one LRU list.
  Opts.CacheBudgetBytes = C0 + C1 + C2 - 1;
  std::unique_ptr<CodeStore> S = mustBuildStore(P, "flate", Opts);

  ASSERT_TRUE(S->fault(0).ok());
  ASSERT_TRUE(S->fault(1).ok());
  ASSERT_TRUE(S->fault(2).ok()); // Over budget: the coldest (0) goes.
  EXPECT_FALSE(S->isResident(0));
  EXPECT_TRUE(S->isResident(1));
  EXPECT_TRUE(S->isResident(2));
  EXPECT_EQ(S->stats().Evictions, 1u);
  EXPECT_EQ(S->stats().ResidentBytes, C1 + C2);

  // Touch 1 so 2 becomes the coldest, then re-fault 0.
  ASSERT_TRUE(S->fault(1).ok());
  ASSERT_TRUE(S->fault(0).ok());
  EXPECT_TRUE(S->isResident(0));
  EXPECT_TRUE(S->isResident(1));
  EXPECT_FALSE(S->isResident(2)) << "recency order decides the victim";
  EXPECT_EQ(S->stats().Evictions, 2u);
}

TEST(Store, PinnedEntriesSurviveEviction) {
  vm::VMProgram P = buildVM(syntheticSource(6));
  ASSERT_GE(P.Functions.size(), 4u);
  StoreOptions Opts;
  Opts.Shards = 1;
  Opts.CacheBudgetBytes = 1; // Every insertion is over budget.
  std::unique_ptr<CodeStore> S = mustBuildStore(P, "vm-compact", Opts);

  ASSERT_TRUE(S->pin(0).ok());
  EXPECT_EQ(S->stats().PinnedFunctions, 1u);
  ASSERT_TRUE(S->fault(1).ok());
  ASSERT_TRUE(S->fault(2).ok());
  EXPECT_TRUE(S->isResident(0)) << "pinned entries are not victims";
  EXPECT_FALSE(S->isResident(1));
  EXPECT_TRUE(S->isResident(2)) << "the newest insertion always stays";

  // Pinning an already-resident entry goes through the hit path.
  ASSERT_TRUE(S->pin(2).ok());
  EXPECT_EQ(S->stats().PinnedFunctions, 2u);
  ASSERT_TRUE(S->fault(3).ok());
  EXPECT_TRUE(S->isResident(0));
  EXPECT_TRUE(S->isResident(2));

  S->unpin(0);
  EXPECT_EQ(S->stats().PinnedFunctions, 1u);
  ASSERT_TRUE(S->fault(1).ok());
  EXPECT_FALSE(S->isResident(0)) << "unpin makes it evictable again";
}

// N threads faulting the same cold function's page: exactly one decode,
// the rest served as hits or single-flight waits. The tsan preset runs
// this with full happens-before checking.
TEST(Store, ConcurrentFaultsDecodeOnce) {
  ensureSlowRawRegistered();
  vm::VMProgram P = buildVM(syntheticSource(4));
  std::unique_ptr<CodeStore> S = mustBuildStore(P, "slow-raw", StoreOptions());

  constexpr unsigned NumThreads = 8;
  SlowDecode.store(true);
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::atomic<unsigned> Failures{0};
  const vm::VMFunction *Seen[NumThreads] = {};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      ++Ready;
      while (!Go.load())
        std::this_thread::yield();
      Result<vm::CodeSpan> R = S->faultSpan(0, 0);
      if (R.ok())
        Seen[T] = R.value().Keep.get();
      else
        ++Failures;
    });
  while (Ready.load() != NumThreads)
    std::this_thread::yield();
  Go.store(true);
  for (std::thread &T : Threads)
    T.join();
  SlowDecode.store(false);

  EXPECT_EQ(Failures.load(), 0u);
  for (unsigned T = 1; T != NumThreads; ++T)
    EXPECT_EQ(Seen[T], Seen[0]) << "all threads share one decoded body";

  StoreStats St = S->stats();
  EXPECT_EQ(St.Decodes, 1u) << "single-flight collapses concurrent decodes";
  EXPECT_EQ(St.Hits + St.Misses, uint64_t(NumThreads));
  EXPECT_EQ(St.SingleFlightWaits, St.Misses - 1)
      << "every miss after the leader waits on its future";
  EXPECT_EQ(St.DecodeErrors, 0u);
}

TEST(Store, CorruptFrameFailsRecoverablyOthersServable) {
  vm::VMProgram P = buildVM(syntheticSource(5));
  std::unique_ptr<CodeStore> Built = mustBuildStore(P, "flate", StoreOptions());
  std::vector<uint8_t> Image = Built->save();

  // Container surgery: replace the entry function's frame (frame 0 is
  // the manifest) with junk flate will reject, repack, reload.
  Result<pipeline::Container> Box = pipeline::tryUnpackContainer(Image);
  ASSERT_TRUE(Box.ok());
  uint32_t Victim = Built->skeleton().Entry;
  Box.value().Frames[Victim + 1] = {1, 2, 3};
  std::vector<uint8_t> Doctored =
      pipeline::packContainer(Box.value().ChainSpec, Box.value().Frames);

  Result<std::unique_ptr<CodeStore>> L =
      CodeStore::tryLoad(Doctored, StoreOptions());
  ASSERT_TRUE(L.ok()) << "frame corruption surfaces at fault, not load: "
                      << L.error().message();
  std::unique_ptr<CodeStore> S = L.take();

  // The corrupt function fails every fault (errors are not cached)...
  for (int Try = 0; Try != 2; ++Try) {
    Result<std::shared_ptr<const vm::VMFunction>> R = S->fault(Victim);
    ASSERT_FALSE(R.ok());
    EXPECT_FALSE(R.error().message().empty());
  }
  EXPECT_EQ(S->stats().DecodeErrors, 2u);
  EXPECT_FALSE(S->isResident(Victim));

  // ...while every other function still serves.
  for (uint32_t I = 0; I != S->functionCount(); ++I) {
    if (I == Victim)
      continue;
    Result<std::shared_ptr<const vm::VMFunction>> R = S->fault(I);
    EXPECT_TRUE(R.ok()) << I << ": " << R.error().message();
  }

  // Executing through the resolver traps that run; the process carries on.
  vm::RunResult R = runFromStore(*S);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Trap.find("resolve function"), std::string::npos) << R.Trap;
}

// The shard split must not truncate: budget/N drops up to N-1 bytes, so
// a 7-byte budget over 4 shards would quietly behave as 4 bytes. The
// remainder is distributed one byte per shard and the effective
// capacity always equals the configured budget.
TEST(Store, ShardBudgetDistributesRemainder) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  for (unsigned Shards : {1u, 3u, 4u, 7u}) {
    for (size_t Budget : {size_t(7), size_t(1), size_t(64) + 3,
                          size_t(1) << 20}) {
      StoreOptions Opts;
      Opts.Shards = Shards;
      Opts.CacheBudgetBytes = Budget;
      std::unique_ptr<CodeStore> S = mustBuildStore(P, "flate", Opts);
      ASSERT_NE(S, nullptr);
      EXPECT_EQ(S->cacheBudgetBytes(), Budget)
          << Shards << " shards, budget " << Budget;
    }
  }
}

// Prefetch warms must not masquerade as demand traffic: a prefetched
// frame is neither a Hit nor a Miss, and its decode is tallied
// separately as a PrefetchDecode.
TEST(Store, PrefetchAccountsSeparatelyFromDemand) {
  vm::VMProgram P = buildVM(syntheticSource(6));
  std::unique_ptr<CodeStore> S = mustBuildStore(P, "flate", StoreOptions());
  ASSERT_NE(S, nullptr);
  std::vector<uint32_t> All;
  for (uint32_t I = 0; I != S->functionCount(); ++I)
    All.push_back(I);

  ThreadPool Pool(4);
  S->prefetch(All, Pool);
  Pool.wait();

  StoreStats St = S->stats();
  EXPECT_EQ(St.Misses, 0u) << "prefetch warms are not cold misses";
  EXPECT_EQ(St.Hits, 0u);
  EXPECT_EQ(St.Decodes, uint64_t(All.size()));
  EXPECT_EQ(St.PrefetchDecodes, uint64_t(All.size()));
  EXPECT_EQ(St.ResidentFunctions, uint64_t(All.size()));

  // Demand traffic after the warm-up is pure hits, and demand decodes
  // (here: none) stay out of PrefetchDecodes.
  ASSERT_TRUE(S->fault(0).ok());
  St = S->stats();
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Misses, 0u);
  EXPECT_EQ(St.Decodes, uint64_t(All.size()));
  EXPECT_EQ(St.PrefetchDecodes, uint64_t(All.size()));
}

TEST(Store, PrefetchWarmsTheCache) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok);

  std::unique_ptr<CodeStore> S =
      mustBuildStore(P, "brisc+flate", StoreOptions());
  std::vector<uint32_t> All;
  for (uint32_t I = 0; I != S->functionCount(); ++I)
    All.push_back(I);

  ThreadPool Pool(4);
  S->prefetch(All, Pool);
  Pool.wait();
  EXPECT_EQ(S->stats().ResidentFunctions, uint64_t(All.size()));

  S->resetStats();
  vm::RunResult R = runFromStore(*S);
  EXPECT_TRUE(R.Ok) << R.Trap;
  EXPECT_EQ(R.Output, Eager.Output);
  StoreStats St = S->stats();
  EXPECT_EQ(St.Misses, 0u) << "a prefetched store never faults";
  EXPECT_GT(St.Hits, 0u);
}

TEST(Store, FaultOutOfRangeIsTypedError) {
  vm::VMProgram P = buildVM(syntheticSource(3));
  std::unique_ptr<CodeStore> S = mustBuildStore(P, "flate", StoreOptions());
  Result<std::shared_ptr<const vm::VMFunction>> R =
      S->fault(S->functionCount());
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().message().find("out of range"), std::string::npos);
  EXPECT_FALSE(S->isResident(S->functionCount()));
}

} // namespace
