//===- tests/test_layout.cpp - Profile-guided layout differential suite --------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// The profile-guided page layout's promises, pinned differentially
// against the source-order layout: execution out of a trace-guided
// store is byte-for-byte identical to both the eager run and the
// source-order store for every per-function codec, at every page
// target, at a generous budget and at a 1-byte budget; a profiled
// partition is still a valid source-order partition cut only at block
// boundaries; no profile (or an all-cold one) reproduces the greedy
// packing bit-identically; traces are deterministic and round-trip
// their sidecar encoding; the profiled layout rides the manifest
// through save/load; admission-clamped prefetch never over-fetches on
// a tiny budget; and concurrent span faults on a profiled layout still
// collapse to one decode.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "corpus/Corpus.h"
#include "pipeline/Codec.h"
#include "pipeline/Payload.h"
#include "pipeline/Profile.h"
#include "store/CodeStore.h"
#include "store/Resolver.h"
#include "store/Trace.h"
#include "support/ThreadPool.h"
#include "vm/Encode.h"
#include "vm/Program.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>

using namespace ccomp;
using namespace ccomp::store;
using namespace ccomp::test;

namespace {

const size_t PageTargets[] = {64, 256, 4096, 0}; // 0 = whole function.

const char *const PerFunctionChains[] = {"flate", "vm-compact", "brisc",
                                         "brisc+flate", "vm-compact+flate"};

std::unique_ptr<CodeStore> mustBuildStore(const vm::VMProgram &P,
                                          const std::string &Chain,
                                          StoreOptions Opts) {
  std::string Err;
  std::unique_ptr<CodeStore> S = CodeStore::build(P, Chain, Opts, Err);
  EXPECT_NE(S, nullptr) << Chain << ": " << Err;
  return S;
}

void expectSameFunction(const vm::VMFunction &A, const vm::VMFunction &B,
                        const std::string &Ctx) {
  EXPECT_EQ(A.Name, B.Name) << Ctx;
  EXPECT_EQ(A.FrameSize, B.FrameSize) << Ctx;
  EXPECT_EQ(A.LabelPos, B.LabelPos) << Ctx;
  ASSERT_EQ(A.Code.size(), B.Code.size()) << Ctx;
  for (size_t I = 0; I != A.Code.size(); ++I) {
    const vm::Instr &X = A.Code[I], &Y = B.Code[I];
    ASSERT_TRUE(X.Op == Y.Op && X.Rd == Y.Rd && X.Rs1 == Y.Rs1 &&
                X.Rs2 == Y.Rs2 && X.Imm == Y.Imm && X.Target == Y.Target)
        << Ctx << ": instruction " << I << " differs";
  }
}

/// The recorded trace of \p P, failing the test if the profiling run
/// traps or diverges from \p Eager.
pipeline::ExecutionTrace mustRecord(const vm::VMProgram &P,
                                    const vm::RunResult &Eager) {
  TraceRunResult R = recordTrace(P);
  EXPECT_TRUE(R.Run.Ok) << R.Run.Trap;
  EXPECT_EQ(R.Run.Output, Eager.Output) << "profiling must not perturb";
  EXPECT_EQ(R.Run.ExitCode, Eager.ExitCode);
  return std::move(R.Trace);
}

/// Per-function shapes for digestTrace, straight from the program.
std::vector<pipeline::FunctionShape> shapesOf(const vm::VMProgram &P) {
  std::vector<pipeline::FunctionShape> Shapes;
  Shapes.reserve(P.Functions.size());
  for (const vm::VMFunction &F : P.Functions)
    Shapes.push_back({F.LabelPos, static_cast<uint32_t>(F.Code.size())});
  return Shapes;
}

// A registered passthrough codec with a switchable decode delay, to
// widen the single-flight race window (same trick as test_paged_store).
std::atomic<bool> SlowDecode{false};

class SlowRawCodec final : public pipeline::Codec {
public:
  const char *name() const override { return "slow-raw-layout"; }
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

// The differential acceptance bar: a trace-guided store must execute
// byte-for-byte like the eager run AND decode every function
// byte-for-byte like the source-order store, for every per-function
// codec, at every page target, at a generous budget and at a 1-byte
// budget.
TEST(Layout, ProfiledExecutionMatchesSourceOrderEverywhere) {
  vm::VMProgram P = buildVM(syntheticSource(10));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok) << Eager.Trap;
  pipeline::ExecutionTrace Trace = mustRecord(P, Eager);
  ASSERT_FALSE(Trace.Events.empty());

  for (const char *Chain : PerFunctionChains) {
    for (size_t Target : PageTargets) {
      for (size_t Budget : {size_t(16) << 20, size_t(1)}) {
        std::string Ctx = std::string(Chain) + " target=" +
                          std::to_string(Target) + " budget=" +
                          std::to_string(Budget);
        StoreOptions Plain;
        Plain.PageTargetBytes = Target;
        Plain.CacheBudgetBytes = Budget;
        StoreOptions Profiled = Plain;
        Profiled.Profile = &Trace;
        std::unique_ptr<CodeStore> Src = mustBuildStore(P, Chain, Plain);
        std::unique_ptr<CodeStore> Prof = mustBuildStore(P, Chain, Profiled);
        ASSERT_NE(Src, nullptr);
        ASSERT_NE(Prof, nullptr);
        EXPECT_TRUE(Prof->hasAccessProfile()) << Ctx;
        EXPECT_FALSE(Src->hasAccessProfile()) << Ctx;

        for (CodeStore *S : {Src.get(), Prof.get()}) {
          vm::RunResult R = runFromStore(*S);
          EXPECT_TRUE(R.Ok) << Ctx << ": " << R.Trap;
          EXPECT_EQ(R.ExitCode, Eager.ExitCode) << Ctx;
          EXPECT_EQ(R.Output, Eager.Output) << Ctx;
          EXPECT_EQ(R.Steps, Eager.Steps) << Ctx;
        }

        // Assembled bodies are identical across the two layouts.
        for (uint32_t I = 0; I != P.Functions.size(); ++I) {
          Result<std::shared_ptr<const vm::VMFunction>> A = Src->fault(I);
          Result<std::shared_ptr<const vm::VMFunction>> B = Prof->fault(I);
          ASSERT_TRUE(A.ok()) << Ctx << ": " << A.error().message();
          ASSERT_TRUE(B.ok()) << Ctx << ": " << B.error().message();
          expectSameFunction(*A.value(), *B.value(),
                             Ctx + " fn " + std::to_string(I));
        }
      }
    }
  }
}

// Without a usable profile the 3-argument splitFunctionPages must be
// bit-identical to the greedy source-order packer — same page count,
// same cut points, same instructions.
TEST(Layout, NoProfileIsBitIdenticalToGreedyPacking) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  for (const vm::VMFunction &F : P.Functions) {
    size_t N = vm::blockCuts(F.LabelPos, F.Code.size()).size() - 1;
    pipeline::FunctionProfile Cold;
    Cold.BlockHeat.assign(N, 0);
    Cold.EdgeAffinity.assign(N > 1 ? N - 1 : 0, 0);
    for (size_t Target : PageTargets) {
      std::vector<pipeline::PageChunk> Greedy =
          pipeline::splitFunctionPages(F, Target);
      const pipeline::FunctionProfile *Variants[] = {nullptr, &Cold};
      for (const pipeline::FunctionProfile *Prof : Variants) {
        std::vector<pipeline::PageChunk> Got =
            pipeline::splitFunctionPages(F, Target, Prof);
        ASSERT_EQ(Got.size(), Greedy.size())
            << F.Name << " target=" << Target;
        for (size_t K = 0; K != Got.size(); ++K) {
          EXPECT_EQ(Got[K].FirstInstr, Greedy[K].FirstInstr) << F.Name;
          EXPECT_EQ(Got[K].Code.size(), Greedy[K].Code.size()) << F.Name;
        }
      }
    }
  }
}

// A profiled split is still a valid layout: pages are a contiguous
// partition of the body in source order, every cut lands on a block
// boundary, and no page except a lone oversized block exceeds the
// target.
TEST(Layout, ProfiledSplitIsAValidBlockPartition) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok);
  pipeline::ExecutionTrace Trace = mustRecord(P, Eager);
  std::vector<pipeline::FunctionProfile> Profiles =
      pipeline::digestTrace(Trace, shapesOf(P));
  ASSERT_EQ(Profiles.size(), P.Functions.size());

  for (size_t Target : {size_t(64), size_t(256)}) {
    for (size_t Fn = 0; Fn != P.Functions.size(); ++Fn) {
      const vm::VMFunction &F = P.Functions[Fn];
      std::vector<uint32_t> Cuts = vm::blockCuts(F.LabelPos, F.Code.size());
      std::vector<pipeline::PageChunk> Pages =
          pipeline::splitFunctionPages(F, Target, &Profiles[Fn]);
      ASSERT_FALSE(Pages.empty()) << F.Name;
      uint32_t At = 0;
      for (const pipeline::PageChunk &Pg : Pages) {
        EXPECT_EQ(Pg.FirstInstr, At) << F.Name << ": contiguous partition";
        EXPECT_TRUE(std::binary_search(Cuts.begin(), Cuts.end(),
                                       Pg.FirstInstr))
            << F.Name << ": cut off a block boundary at " << Pg.FirstInstr;
        size_t Bytes = 0;
        for (const vm::Instr &In : Pg.Code) {
          const vm::Instr &Want = F.Code[At + (&In - Pg.Code.data())];
          EXPECT_TRUE(In.Op == Want.Op && In.Imm == Want.Imm)
              << F.Name << ": reordered instructions";
          Bytes += vm::encodedSize(In);
        }
        // Over-target pages are only legal as single oversized blocks.
        if (Bytes > Target) {
          uint32_t Lo = Pg.FirstInstr;
          uint32_t Hi = Lo + static_cast<uint32_t>(Pg.Code.size());
          auto It = std::upper_bound(Cuts.begin(), Cuts.end(), Lo);
          EXPECT_TRUE(It != Cuts.end() && *It == Hi)
              << F.Name << ": multi-block page over target";
        }
        At += static_cast<uint32_t>(Pg.Code.size());
      }
      EXPECT_EQ(At, F.Code.size()) << F.Name << ": covers the whole body";
    }
  }
}

// Recording the same program twice yields the same trace, event for
// event — the foundation for reproducible layouts.
TEST(Layout, TraceIsDeterministic) {
  vm::VMProgram P = buildVM(syntheticSource(6));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok);
  pipeline::ExecutionTrace A = mustRecord(P, Eager);
  pipeline::ExecutionTrace B = mustRecord(P, Eager);
  EXPECT_EQ(A.FuncCount, B.FuncCount);
  EXPECT_EQ(A.Truncated, B.Truncated);
  ASSERT_EQ(A.Events.size(), B.Events.size());
  EXPECT_TRUE(A.Events == B.Events) << "trace must be deterministic";
  ASSERT_FALSE(A.Events.empty());
  for (const pipeline::TraceEvent &E : A.Events) {
    EXPECT_LT(E.Fn, A.FuncCount);
    EXPECT_LT(E.Idx, pipeline::MaxTraceInstrIdx);
  }
}

// The CCPF sidecar round-trips exactly, including the truncation flag
// and the empty trace.
TEST(Layout, ProfileSidecarRoundTrips) {
  vm::VMProgram P = buildVM(syntheticSource(6));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok);
  pipeline::ExecutionTrace T = mustRecord(P, Eager);

  for (bool Truncated : {false, true}) {
    T.Truncated = Truncated;
    std::vector<uint8_t> Bytes = T.serialize();
    Result<pipeline::ExecutionTrace> Back =
        pipeline::ExecutionTrace::tryDeserialize(Bytes);
    ASSERT_TRUE(Back.ok()) << Back.error().message();
    EXPECT_EQ(Back.value().FuncCount, T.FuncCount);
    EXPECT_EQ(Back.value().Truncated, Truncated);
    EXPECT_TRUE(Back.value().Events == T.Events);
  }

  pipeline::ExecutionTrace Empty;
  Empty.FuncCount = 3;
  Result<pipeline::ExecutionTrace> Back =
      pipeline::ExecutionTrace::tryDeserialize(Empty.serialize());
  ASSERT_TRUE(Back.ok());
  EXPECT_TRUE(Back.value().Events.empty());
  EXPECT_EQ(Back.value().FuncCount, 3u);
}

// The profiled layout rides the manifest: save/load preserves the page
// table exactly and the loaded store still replays the eager run.
TEST(Layout, ProfiledContainerSaveLoadRoundTrips) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok);
  pipeline::ExecutionTrace Trace = mustRecord(P, Eager);

  StoreOptions Opts;
  Opts.PageTargetBytes = 96;
  Opts.Profile = &Trace;
  std::unique_ptr<CodeStore> S = mustBuildStore(P, "brisc+flate", Opts);
  ASSERT_NE(S, nullptr);
  std::vector<uint8_t> Image = S->save();

  Result<std::unique_ptr<CodeStore>> Back =
      CodeStore::tryLoad(Image, StoreOptions());
  ASSERT_TRUE(Back.ok()) << Back.error().message();
  std::unique_ptr<CodeStore> L = Back.take();
  EXPECT_GT(L->frameCount(), L->functionCount());
  EXPECT_EQ(L->frameCount(), S->frameCount());
  EXPECT_EQ(L->functionCount(), S->functionCount());
  for (uint32_t I = 0; I != L->functionCount(); ++I)
    EXPECT_EQ(L->pageCountOf(I), S->pageCountOf(I)) << I;

  vm::RunResult R = runFromStore(*L);
  EXPECT_TRUE(R.Ok) << R.Trap;
  EXPECT_EQ(R.Output, Eager.Output);
  EXPECT_EQ(R.Steps, Eager.Steps);

  // Byte-stability: saving the loaded store reproduces the image.
  EXPECT_EQ(L->save(), Image);
}

// The prefetch clamp: on a 1-byte budget a whole-store prefetch may
// decode at most the one frame admission will actually keep — no
// over-fetch, no wasted decodes. On a generous budget the same call
// warms everything.
TEST(Layout, PrefetchClampsToAdmissionOnTinyBudget) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  std::vector<uint32_t> All;

  StoreOptions Tiny;
  Tiny.Shards = 1;
  Tiny.PageTargetBytes = 64;
  Tiny.CacheBudgetBytes = 1;
  std::unique_ptr<CodeStore> S = mustBuildStore(P, "flate", Tiny);
  ASSERT_NE(S, nullptr);
  for (uint32_t I = 0; I != S->functionCount(); ++I)
    All.push_back(I);
  {
    ThreadPool Pool(4);
    S->prefetch(All, Pool);
    Pool.wait();
  }
  StoreStats St = S->stats();
  EXPECT_LE(St.PrefetchDecodes, 1u)
      << "1-byte budget admits one frame; prefetch must not decode more";
  EXPECT_LE(St.ResidentFunctions, 1u);

  StoreOptions Big = Tiny;
  Big.CacheBudgetBytes = 16u << 20;
  std::unique_ptr<CodeStore> G = mustBuildStore(P, "flate", Big);
  ASSERT_NE(G, nullptr);
  {
    ThreadPool Pool(4);
    G->prefetch(All, Pool);
    Pool.wait();
  }
  EXPECT_EQ(G->stats().PrefetchDecodes, uint64_t(G->frameCount()))
      << "a generous budget warms every frame";
  for (uint32_t I = 0; I != G->functionCount(); ++I)
    EXPECT_TRUE(G->isResident(I)) << I;
}

// The recorded successor graph predicts only frames the trace actually
// transitioned to, best first.
TEST(Layout, PredictedSuccessorsComeFromTheTrace) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok);
  pipeline::ExecutionTrace Trace = mustRecord(P, Eager);

  StoreOptions Opts; // Unpaged: frames are functions, easy to check.
  Opts.Profile = &Trace;
  std::unique_ptr<CodeStore> S = mustBuildStore(P, "flate", Opts);
  ASSERT_NE(S, nullptr);
  ASSERT_TRUE(S->hasAccessProfile());

  // Recompute the observed frame transitions straight from the trace.
  std::vector<std::set<uint32_t>> Observed(S->frameCount());
  for (size_t I = 1; I < Trace.Events.size(); ++I) {
    uint32_t From = Trace.Events[I - 1].Fn, To = Trace.Events[I].Fn;
    if (From != To)
      Observed[From].insert(To);
  }
  bool AnyPrediction = false;
  for (uint32_t F = 0; F != S->frameCount(); ++F) {
    std::vector<uint32_t> Pred = S->predictedSuccessors(F, ~0u);
    AnyPrediction = AnyPrediction || !Pred.empty();
    for (uint32_t N : Pred)
      EXPECT_TRUE(Observed[F].count(N))
          << "frame " << F << " predicts " << N << " never observed";
  }
  EXPECT_TRUE(AnyPrediction) << "a real trace must predict something";
}

// 8 threads resolving the same cold instruction on a *profiled* layout:
// exactly one decode of exactly one page, all threads sharing it. The
// tsan preset runs this with full happens-before checking.
TEST(Layout, ConcurrentSpanFaultsOnProfiledLayoutDecodeOnce) {
  ensureSlowRawRegistered();
  vm::VMProgram P = buildVM(syntheticSource(6));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok);
  pipeline::ExecutionTrace Trace = mustRecord(P, Eager);

  StoreOptions Opts;
  Opts.PageTargetBytes = 64;
  Opts.Profile = &Trace;
  std::unique_ptr<CodeStore> S = mustBuildStore(P, "slow-raw-layout", Opts);
  ASSERT_NE(S, nullptr);
  uint32_t Fn = 0;
  while (Fn != S->functionCount() && S->pageCountOf(Fn) < 2)
    ++Fn;
  ASSERT_NE(Fn, S->functionCount()) << "need a function with several pages";

  constexpr unsigned NumThreads = 8;
  SlowDecode.store(true);
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::atomic<unsigned> Failures{0};
  const vm::Instr *Seen[NumThreads] = {};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      ++Ready;
      while (!Go.load())
        std::this_thread::yield();
      Result<vm::CodeSpan> R = S->faultSpan(Fn, 0);
      if (R.ok())
        Seen[T] = R.value().Code;
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
    EXPECT_EQ(Seen[T], Seen[0]) << "all threads share one decoded page";
  StoreStats St = S->stats();
  EXPECT_EQ(St.Decodes, 1u) << "single-flight collapses to one page decode";
  EXPECT_EQ(St.Hits + St.Misses, uint64_t(NumThreads));
  EXPECT_EQ(St.SingleFlightWaits, St.Misses - 1);
}


// The layout payoff (EXPERIMENTS E11, the Ozturk et al. access-pattern
// claim): on the icc class at 96 B pages, clustering co-hot blocks by
// the recorded trace must strictly cut BOTH demand faults and resident
// decoded bytes against source order. The budget holds everything, so
// faults count each distinct page's compulsory miss and resident bytes
// count every decoded byte the run needed — the layout signal, with no
// eviction luck in it.
TEST(Layout, TraceGuidedLayoutCutsFaultsAndResidentBytes) {
  vm::VMProgram P = buildVM(corpus::sizeClassSource("icc"));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok) << Eager.Trap;
  pipeline::ExecutionTrace Trace = mustRecord(P, Eager);
  size_t DecodedBytes = 0;
  for (const vm::VMFunction &F : P.Functions)
    DecodedBytes += decodedCostBytes(F);

  auto measure = [&](const pipeline::ExecutionTrace *Profile) {
    StoreOptions Opts;
    Opts.Shards = 1;
    Opts.CacheBudgetBytes = DecodedBytes * 2;
    Opts.PageTargetBytes = 96;
    Opts.Profile = Profile;
    std::unique_ptr<CodeStore> S = mustBuildStore(P, "brisc+flate", Opts);
    EXPECT_NE(S, nullptr);
    if (!S)
      return StoreStats();
    vm::RunResult R = runFromStore(*S);
    EXPECT_TRUE(R.Ok) << R.Trap;
    EXPECT_EQ(R.Output, Eager.Output);
    EXPECT_EQ(R.ExitCode, Eager.ExitCode);
    EXPECT_EQ(R.Steps, Eager.Steps);
    return S->stats();
  };
  StoreStats Source = measure(nullptr);
  StoreStats Guided = measure(&Trace);
  // Recorded: 835 < 849 faults, 329,248 < 336,252 resident bytes.
  EXPECT_LT(Guided.Misses, Source.Misses);
  EXPECT_LT(Guided.ResidentBytes, Source.ResidentBytes);
}

} // namespace
