//===- tests/test_paged_store.cpp - Sub-function fault granularity -------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// The paged store's promises: execution out of page-granular faults is
// byte-for-byte identical to eager full decode for every per-function
// codec, at any page-size target and any budget, built or loaded; a
// function assembled from its pages equals the eager function exactly
// (after the function-image canonicalization for image chains); pinned pages
// survive eviction; N concurrent faults on one page perform exactly one
// decode; and a corrupt page fails its own faults recoverably while the
// function's other pages — and every other function — stay servable.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "corpus/Corpus.h"
#include "pipeline/Codec.h"
#include "pipeline/Payload.h"
#include "pipeline/Pipeline.h"
#include "store/CodeStore.h"
#include "store/Resolver.h"
#include "vm/Encode.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <thread>

using namespace ccomp;
using namespace ccomp::store;
using namespace ccomp::test;

namespace {

const size_t PageTargets[] = {64, 256, 4096, 0}; // 0 = a page per function.

const char *const PerFunctionChains[] = {
    "flate",     "vm-compact", "brisc",          "brisc+flate",
    "vm-compact+flate", "bwt-dict", "brisc-ctx", "brisc-ctx+flate",
    "brisc-ctx+bwt-dict"};

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

/// Frame id of function Fn's first page (frame 0 of the container is the
/// manifest, so the container index is this plus one).
uint32_t firstPageOf(const CodeStore &S, uint32_t Fn) {
  uint32_t Id = 0;
  for (uint32_t I = 0; I != Fn; ++I)
    Id += S.pageCountOf(I);
  return Id;
}

// A registered passthrough codec with a switchable decode delay, to
// widen the single-flight race window (same trick as test_store).
std::atomic<bool> SlowDecode{false};

class SlowRawCodec final : public pipeline::Codec {
public:
  const char *name() const override { return "slow-raw-paged"; }
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

// The acceptance bar: a page-granular run is byte-for-byte the eager
// run, for every per-function codec, at every page target, at a
// generous budget and at a 1-byte budget (which holds exactly the most
// recently faulted page).
TEST(PagedStore, ExecutionMatchesEagerAtAnyPageSizeAndBudget) {
  vm::VMProgram P = buildVM(syntheticSource(10));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok) << Eager.Trap;

  for (const char *Chain : PerFunctionChains) {
    for (size_t Target : PageTargets) {
      for (size_t Budget : {size_t(16) << 20, size_t(1)}) {
        StoreOptions Opts;
        Opts.PageTargetBytes = Target;
        Opts.CacheBudgetBytes = Budget;
        std::unique_ptr<CodeStore> S = mustBuildStore(P, Chain, Opts);
        ASSERT_NE(S, nullptr);
        if (Target == 0) {
          EXPECT_EQ(S->frameCount(), S->functionCount())
              << "0 keeps each function on one page";
        } else {
          EXPECT_GE(S->frameCount(), S->functionCount());
        }

        vm::RunResult R = runFromStore(*S);
        std::string Ctx = std::string(Chain) + " target=" +
                          std::to_string(Target) + " budget=" +
                          std::to_string(Budget);
        EXPECT_TRUE(R.Ok) << Ctx << ": " << R.Trap;
        EXPECT_EQ(R.ExitCode, Eager.ExitCode) << Ctx;
        EXPECT_EQ(R.Output, Eager.Output) << Ctx;
        EXPECT_EQ(R.Steps, Eager.Steps) << Ctx;
        if (Budget == size_t(1))
          EXPECT_GT(S->stats().Evictions, 0u)
              << Ctx << ": a 1-byte budget must be evicting";
      }
    }
  }

  // A small budget under the default shard count. The corpus suite
  // (brisc+flate, ~48 KB decoded, largest function ~3.6 KB) at
  // decoded/8 would give each of 8 shards ~760 B, so no large frame
  // could stay resident and every touch of it would decode again. The
  // private registry takes no more shards than leave each share room
  // for the largest frame, so faults equal a one-shard store's — for
  // the built store, and for the saved container opened from memory
  // and from a file, whose manifest carries every page's exact cost.
  vm::VMProgram Suite = suiteProgram();
  vm::RunResult SuiteEager = vm::runProgram(Suite);
  ASSERT_TRUE(SuiteEager.Ok) << SuiteEager.Trap;
  size_t Decoded = 0;
  for (const vm::VMFunction &F : Suite.Functions)
    Decoded += decodedCostBytes(F);
  const std::string Path = testing::TempDir() + "ccomp_shard_split.ccpk";
  for (size_t Target : {size_t(0), size_t(4096)}) {
    StoreOptions Opts;
    Opts.PageTargetBytes = Target;
    Opts.CacheBudgetBytes = Decoded / 8;
    Opts.Shards = 1;
    std::unique_ptr<CodeStore> One = mustBuildStore(Suite, "brisc+flate", Opts);
    ASSERT_NE(One, nullptr);
    std::vector<uint8_t> Image = One->save();
    {
      std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
      Out.write(reinterpret_cast<const char *>(Image.data()),
                static_cast<std::streamsize>(Image.size()));
    }
    Opts.Shards = StoreOptions().Shards;
    std::unique_ptr<CodeStore> Built =
        mustBuildStore(Suite, "brisc+flate", Opts);
    ASSERT_NE(Built, nullptr);
    Result<std::unique_ptr<CodeStore>> Loaded = CodeStore::tryLoad(Image, Opts);
    ASSERT_TRUE(Loaded.ok()) << Loaded.error().message();
    Result<std::unique_ptr<CodeStore>> Opened =
        CodeStore::tryOpenFile(Path, Opts);
    ASSERT_TRUE(Opened.ok()) << Opened.error().message();

    const std::pair<const char *, CodeStore *> Stores[] = {
        {"one shard", One.get()},
        {"built", Built.get()},
        {"tryLoad", Loaded.value().get()},
        {"tryOpenFile", Opened.value().get()}};
    uint64_t OneShardFaults = 0;
    for (const auto &[Name, S] : Stores) {
      vm::RunResult R = runFromStore(*S);
      std::string Ctx = "suite target=" + std::to_string(Target) + " " + Name;
      EXPECT_TRUE(R.Ok) << Ctx << ": " << R.Trap;
      EXPECT_EQ(R.ExitCode, SuiteEager.ExitCode) << Ctx;
      EXPECT_EQ(R.Output, SuiteEager.Output) << Ctx;
      EXPECT_EQ(R.Steps, SuiteEager.Steps) << Ctx;
      if (S == One.get()) {
        OneShardFaults = S->stats().Misses;
      } else {
        EXPECT_EQ(S->stats().Misses, OneShardFaults)
            << Ctx << ": default shards vs one shard";
      }
    }
  }
}

// fault(Fn) assembles the body from its pages; the result must equal
// the eager function exactly — name, frame size, label table, and every
// instruction — at one page per function and at many. Image chains
// store the function-image canonical form (sorted, deduplicated label
// table), so their reference is the eager function after that round
// trip; code-only chains keep the eager function as it is.
TEST(PagedStore, AssembledFunctionMatchesEagerFunction) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  for (const char *Chain : PerFunctionChains) {
    std::string Err;
    std::vector<const pipeline::Codec *> Codecs =
        pipeline::parseChain(Chain, Err);
    ASSERT_FALSE(Codecs.empty()) << Chain << ": " << Err;
    const bool Image =
        Codecs.front()->payloadKind() == pipeline::PayloadKind::FuncImage;
    for (size_t Target : {size_t(0), size_t(64)}) {
      StoreOptions Opts;
      Opts.PageTargetBytes = Target;
      std::unique_ptr<CodeStore> S = mustBuildStore(P, Chain, Opts);
      ASSERT_NE(S, nullptr);
      std::string Ctx =
          std::string(Chain) + " target=" + std::to_string(Target);
      if (Target == 64) {
        EXPECT_GT(S->frameCount(), S->functionCount())
            << Ctx << ": 64-byte pages must split some function";
      }

      for (uint32_t I = 0; I != P.Functions.size(); ++I) {
        vm::VMFunction Want = P.Functions[I];
        if (Image) {
          Result<vm::VMFunction> C =
              pipeline::tryDecodeFuncImage(pipeline::encodeFuncImage(Want));
          ASSERT_TRUE(C.ok()) << Ctx << ": " << C.error().message();
          Want = C.take();
        }
        Result<std::shared_ptr<const vm::VMFunction>> Got = S->fault(I);
        ASSERT_TRUE(Got.ok()) << Ctx << ": " << Got.error().message();
        expectSameFunction(*Got.value(), Want,
                           Ctx + " fn " + std::to_string(I));
      }
    }
  }
}

TEST(PagedStore, SaveLoadRoundTripKeepsPageGranularity) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok);

  StoreOptions Opts;
  Opts.PageTargetBytes = 128;
  std::unique_ptr<CodeStore> S = mustBuildStore(P, "brisc+flate", Opts);
  ASSERT_NE(S, nullptr);
  std::vector<uint8_t> Image = S->save();

  // Loading reads the page table from the manifest: the options carry
  // no page target.
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

  // Truncated paged containers fail typed at load, never abort.
  for (size_t Keep : {size_t(0), size_t(9), Image.size() / 2}) {
    std::vector<uint8_t> Cut(Image.begin(), Image.begin() + Keep);
    EXPECT_FALSE(CodeStore::tryLoad(Cut, StoreOptions()).ok())
        << "keep=" << Keep;
  }
}

TEST(PagedStore, FaultSpanServesOnePageAndClamps) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  StoreOptions Opts;
  Opts.Shards = 1;
  Opts.PageTargetBytes = 64;
  std::unique_ptr<CodeStore> S = mustBuildStore(P, "flate", Opts);
  ASSERT_NE(S, nullptr);

  // Pick a multi-page function.
  uint32_t Fn = 0;
  while (Fn != S->functionCount() && S->pageCountOf(Fn) < 2)
    ++Fn;
  ASSERT_NE(Fn, S->functionCount()) << "need a function with several pages";
  uint32_t Len = static_cast<uint32_t>(P.Functions[Fn].Code.size());

  Result<vm::CodeSpan> First = S->faultSpan(Fn, 0);
  ASSERT_TRUE(First.ok()) << First.error().message();
  EXPECT_EQ(First.value().Begin, 0u);
  EXPECT_LT(First.value().End, Len) << "one page, not the whole body";
  EXPECT_EQ(First.value().FuncLen, Len);
  EXPECT_TRUE(First.value().contains(0));
  EXPECT_EQ(S->stats().Decodes, 1u) << "only the touched page decodes";

  // The span's instructions are the eager body's slice.
  for (uint32_t I = First.value().Begin; I != First.value().End; ++I)
    EXPECT_EQ(First.value().Code[I - First.value().Begin].Op,
              P.Functions[Fn].Code[I].Op);

  // An index past the end clamps to the last page (the interpreter
  // turns the out-of-range Pc into a trap itself).
  Result<vm::CodeSpan> Past = S->faultSpan(Fn, Len + 100);
  ASSERT_TRUE(Past.ok());
  EXPECT_EQ(Past.value().End, Len);
  EXPECT_TRUE(Past.value().contains(Len - 1));

  // Out-of-range function ids stay typed errors.
  EXPECT_FALSE(S->faultSpan(S->functionCount(), 0).ok());
}

TEST(PagedStore, PinnedPagesSurviveEviction) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  ASSERT_GE(P.Functions.size(), 4u);
  StoreOptions Opts;
  Opts.Shards = 1;
  Opts.CacheBudgetBytes = 1; // Every insertion is over budget.
  Opts.PageTargetBytes = 64;
  std::unique_ptr<CodeStore> S = mustBuildStore(P, "vm-compact", Opts);
  ASSERT_NE(S, nullptr);

  // Pin a multi-page function: every page must stay resident while
  // traffic on other functions churns the 1-byte cache.
  uint32_t Fn = 0;
  while (Fn != S->functionCount() && S->pageCountOf(Fn) < 2)
    ++Fn;
  ASSERT_NE(Fn, S->functionCount());
  ASSERT_TRUE(S->pin(Fn).ok());
  EXPECT_EQ(S->stats().PinnedFunctions, uint64_t(S->pageCountOf(Fn)));
  EXPECT_TRUE(S->isResident(Fn));

  for (uint32_t I = 0; I != S->functionCount(); ++I)
    if (I != Fn)
      ASSERT_TRUE(S->fault(I).ok());
  EXPECT_TRUE(S->isResident(Fn)) << "pinned pages are never victims";

  S->unpin(Fn);
  EXPECT_EQ(S->stats().PinnedFunctions, 0u);
  uint32_t Other = Fn == 0 ? 1 : 0;
  ASSERT_TRUE(S->fault(Other).ok());
  EXPECT_FALSE(S->isResident(Fn)) << "unpin makes the pages evictable";
}

// 8 threads resolving the same cold instruction: exactly one decode of
// exactly one page. The tsan preset runs this with full happens-before
// checking.
TEST(PagedStore, ConcurrentSpanFaultsDecodeOncePerPage) {
  ensureSlowRawRegistered();
  vm::VMProgram P = buildVM(syntheticSource(6));
  StoreOptions Opts;
  Opts.PageTargetBytes = 64;
  std::unique_ptr<CodeStore> S = mustBuildStore(P, "slow-raw-paged", Opts);
  ASSERT_NE(S, nullptr);
  uint32_t Fn = 0;
  while (Fn != S->functionCount() && S->pageCountOf(Fn) < 2)
    ++Fn;
  ASSERT_NE(Fn, S->functionCount());

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

  // Assembling the whole function decodes only the remaining pages.
  S->resetStats();
  ASSERT_TRUE(S->fault(Fn).ok());
  EXPECT_EQ(S->stats().Decodes, uint64_t(S->pageCountOf(Fn) - 1));
}

TEST(PagedStore, CorruptPageFailsRecoverablyOtherPagesServable) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  StoreOptions Opts;
  Opts.PageTargetBytes = 64;
  std::unique_ptr<CodeStore> Built = mustBuildStore(P, "flate", Opts);
  ASSERT_NE(Built, nullptr);
  std::vector<uint8_t> Image = Built->save();

  // Pick a multi-page victim and corrupt its *last* page, so spans in
  // the earlier pages keep serving.
  uint32_t Victim = 0;
  while (Victim != Built->functionCount() && Built->pageCountOf(Victim) < 2)
    ++Victim;
  ASSERT_NE(Victim, Built->functionCount());
  uint32_t BadPage =
      firstPageOf(*Built, Victim) + Built->pageCountOf(Victim) - 1;

  Result<pipeline::Container> Box = pipeline::tryUnpackContainer(Image);
  ASSERT_TRUE(Box.ok());
  Box.value().Frames[BadPage + 1] = {1, 2, 3}; // +1: frame 0 is the manifest.
  std::vector<uint8_t> Doctored =
      pipeline::packContainer(Box.value().ChainSpec, Box.value().Frames);

  Result<std::unique_ptr<CodeStore>> L =
      CodeStore::tryLoad(Doctored, StoreOptions());
  ASSERT_TRUE(L.ok()) << "page corruption surfaces at fault, not load: "
                      << L.error().message();
  std::unique_ptr<CodeStore> S = L.take();

  // Assembling the victim hits the bad page and fails typed, twice
  // (errors are not cached)...
  for (int Try = 0; Try != 2; ++Try) {
    Result<std::shared_ptr<const vm::VMFunction>> R = S->fault(Victim);
    ASSERT_FALSE(R.ok());
    EXPECT_FALSE(R.error().message().empty());
  }
  EXPECT_EQ(S->stats().DecodeErrors, 2u);
  EXPECT_FALSE(S->isResident(Victim));

  // ...while the victim's first page still serves as a span...
  Result<vm::CodeSpan> Span = S->faultSpan(Victim, 0);
  EXPECT_TRUE(Span.ok()) << Span.error().message();

  // ...and every other function stays servable.
  for (uint32_t I = 0; I != S->functionCount(); ++I) {
    if (I == Victim)
      continue;
    Result<std::shared_ptr<const vm::VMFunction>> R = S->fault(I);
    EXPECT_TRUE(R.ok()) << I << ": " << R.error().message();
  }
}


// The granularity payoff (EXPERIMENTS E7): the wep class's largest
// function spans several 4 KiB pages, and spinning in its hot loop under
// a budget of that one function's decoded size leaves strictly fewer
// decoded bytes resident at 4 KiB pages than at one page per function,
// because only the loop's page has to stay in.
TEST(PagedStore, HotLoopResidencyBelowFunctionGranular) {
  const size_t PageTarget = 4096;
  vm::VMProgram P = buildVM(corpus::sizeClassSource("wep"));
  ASSERT_FALSE(P.Functions.empty());
  size_t BigId = 0, BigFixed = 0;
  for (size_t I = 0; I != P.Functions.size(); ++I) {
    size_t Bytes = 0;
    for (const vm::Instr &In : P.Functions[I].Code)
      Bytes += vm::encodedSize(In);
    if (Bytes > BigFixed) {
      BigFixed = Bytes;
      BigId = I;
    }
  }
  const vm::VMFunction &Big = P.Functions[BigId];
  // The hot loop lives in the largest basic-block page; resolving any
  // instruction inside it faults exactly that page.
  std::vector<pipeline::PageChunk> Chunks =
      pipeline::splitFunctionPages(Big, PageTarget);
  ASSERT_GE(Chunks.size(), 2u)
      << "the largest function fits one page; the claim is vacuous";
  size_t HotPage = 0;
  for (size_t K = 0; K != Chunks.size(); ++K)
    if (Chunks[K].Code.size() > Chunks[HotPage].Code.size())
      HotPage = K;
  uint32_t LoopIdx = Chunks[HotPage].FirstInstr;

  const size_t Budget = decodedCostBytes(Big);
  auto residentAfterHotLoop = [&](size_t Target) -> uint64_t {
    StoreOptions Opts;
    Opts.Shards = 1;
    Opts.CacheBudgetBytes = Budget;
    Opts.PageTargetBytes = Target;
    std::unique_ptr<CodeStore> S = mustBuildStore(P, "brisc+flate", Opts);
    EXPECT_NE(S, nullptr);
    if (!S)
      return 0;
    for (int Iter = 0; Iter != 64; ++Iter) {
      Result<vm::CodeSpan> Sp =
          S->faultSpan(static_cast<uint32_t>(BigId), LoopIdx);
      EXPECT_TRUE(Sp.ok()) << Sp.error().message();
    }
    return S->stats().ResidentBytes;
  };
  uint64_t PagedResident = residentAfterHotLoop(PageTarget);
  uint64_t WholeResident = residentAfterHotLoop(0);
  EXPECT_GT(PagedResident, 0u);
  EXPECT_LT(PagedResident, WholeResident)
      << "4 KiB-page residency must be strictly below one page per "
         "function (16024 < 16384 B when recorded)";
}

} // namespace
