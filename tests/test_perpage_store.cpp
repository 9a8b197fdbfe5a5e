//===- tests/test_perpage_store.cpp - Per-frame codec selection ----------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// The per-page selection promises: a store built with candidate chains
// never produces more compressed bytes than any of its chains used
// globally; the selection is deterministic; a non-uniform outcome
// round-trips through an image whose manifest carries the per-frame
// chain table and executes byte-identically to eager; a uniform outcome
// (duplicate candidates) normalizes to a container bit-identical to a
// plain single-chain build; crafted chain tables fail typed; and
// concurrent faults through mixed per-frame chains decode correctly
// under the thread sanitizer.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "corpus/Corpus.h"
#include "pipeline/Codec.h"
#include "pipeline/Pipeline.h"
#include "store/CodeStore.h"
#include "store/Resolver.h"

#include "gtest/gtest.h"

#include <thread>

using namespace ccomp;
using namespace ccomp::store;
using namespace ccomp::test;

namespace {

// Primary first; the rest are the --chains candidates. All of one body
// kind family (Raw/FixedCode payloads are the same bytes).
const char *const Primary = "vm-compact";
const std::vector<std::string> Candidates = {"vm-compact+flate", "bwt-dict",
                                             "brisc-ctx"};

std::unique_ptr<CodeStore> mustBuildStore(const vm::VMProgram &P,
                                          const std::string &Chain,
                                          StoreOptions Opts) {
  std::string Err;
  std::unique_ptr<CodeStore> S = CodeStore::build(P, Chain, Opts, Err);
  EXPECT_NE(S, nullptr) << Chain << ": " << Err;
  return S;
}

StoreOptions perPageOpts(size_t PageTarget) {
  StoreOptions Opts;
  Opts.PageTargetBytes = PageTarget;
  Opts.CacheBudgetBytes = 64u << 20;
  Opts.CandidateChains = Candidates;
  return Opts;
}

/// Manifest flags bit 1: the manifest carries a per-frame chain table.
constexpr uint8_t ChainTableFlag = 2;

/// The flags byte of a container's store manifest (frame 0), after
/// checking the version byte before it names the one manifest layout.
uint8_t manifestFlags(const std::vector<uint8_t> &Image) {
  Result<pipeline::Container> C = pipeline::tryUnpackContainer(Image);
  EXPECT_TRUE(C.ok());
  EXPECT_GE(C.value().Frames[0].size(), size_t(6));
  EXPECT_EQ(C.value().Frames[0][4], 3);
  return C.value().Frames[0][5];
}

/// Repacks \p Image with its manifest replaced by \p Manifest.
std::vector<uint8_t> withManifest(const std::vector<uint8_t> &Image,
                                  std::vector<uint8_t> Manifest) {
  Result<pipeline::Container> C = pipeline::tryUnpackContainer(Image);
  EXPECT_TRUE(C.ok());
  pipeline::Container Cont = C.take();
  Cont.Frames[0] = std::move(Manifest);
  return pipeline::packContainer(Cont.ChainSpec, Cont.Frames);
}

void expectLoadFails(const std::vector<uint8_t> &Image,
                     const std::string &Needle) {
  Result<std::unique_ptr<CodeStore>> L =
      CodeStore::tryLoad(Image, StoreOptions());
  ASSERT_FALSE(L.ok()) << "expected a typed reject: " << Needle;
  EXPECT_NE(L.error().message().find(Needle), std::string::npos)
      << L.error().message();
}

TEST(PerPageStore, SelectionNeverWorseAndExecutesIdentically) {
  vm::VMProgram P = buildVM(syntheticSource(10));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok) << Eager.Trap;

  for (size_t Target : {size_t(64), size_t(256), size_t(0)}) {
    StoreOptions Single;
    Single.PageTargetBytes = Target;
    Single.CacheBudgetBytes = 64u << 20;
    size_t MinSingle = ~size_t(0);
    std::vector<std::string> All{Primary};
    All.insert(All.end(), Candidates.begin(), Candidates.end());
    for (const std::string &CS : All) {
      std::unique_ptr<CodeStore> S = mustBuildStore(P, CS, Single);
      ASSERT_NE(S, nullptr);
      MinSingle = std::min(MinSingle, S->frameBytes());
    }

    std::unique_ptr<CodeStore> Sel =
        mustBuildStore(P, Primary, perPageOpts(Target));
    ASSERT_NE(Sel, nullptr);
    // Per-frame minimum over the same chains can never lose to any one
    // chain applied globally.
    EXPECT_LE(Sel->frameBytes(), MinSingle) << "page target " << Target;

    vm::RunResult R = runFromStore(*Sel);
    ASSERT_TRUE(R.Ok) << R.Trap;
    EXPECT_EQ(R.Output, Eager.Output);
    EXPECT_EQ(R.ExitCode, Eager.ExitCode);
    EXPECT_EQ(R.Steps, Eager.Steps);
  }
}

TEST(PerPageStore, SelectionIsDeterministic) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  std::unique_ptr<CodeStore> A = mustBuildStore(P, Primary, perPageOpts(64));
  ASSERT_NE(A, nullptr);
  StoreOptions Parallel = perPageOpts(64);
  Parallel.BuildJobs = 4;
  std::unique_ptr<CodeStore> B = mustBuildStore(P, Primary, Parallel);
  ASSERT_NE(B, nullptr);
  // The selection is a pure size comparison, so serial and 4-job builds
  // must produce bit-identical containers.
  EXPECT_EQ(A->save(), B->save());
}

TEST(PerPageStore, NonUniformSelectionRoundTripsWithChainTable) {
  vm::VMProgram P = buildVM(syntheticSource(10));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok) << Eager.Trap;

  std::unique_ptr<CodeStore> Sel = mustBuildStore(P, Primary, perPageOpts(64));
  ASSERT_NE(Sel, nullptr);
  // This corpus/chain set is known to split across chains; the build is
  // deterministic, so this cannot flake.
  ASSERT_TRUE(Sel->perPageChains());
  EXPECT_EQ(Sel->chainSpec(), Primary);

  std::vector<uint8_t> Image = Sel->save();
  EXPECT_TRUE(manifestFlags(Image) & ChainTableFlag);

  Result<std::unique_ptr<CodeStore>> L =
      CodeStore::tryLoad(Image, StoreOptions());
  ASSERT_TRUE(L.ok()) << L.error().message();
  CodeStore &Re = *L.value();
  EXPECT_TRUE(Re.perPageChains());
  EXPECT_EQ(Re.chainSpec(), Primary);
  EXPECT_EQ(Re.frameBytes(), Sel->frameBytes());
  // Every frame's chain survived the round trip.
  for (uint32_t I = 0; I != Re.frameCount(); ++I)
    EXPECT_EQ(Re.frameChainSpec(I), Sel->frameChainSpec(I)) << "frame " << I;
  // Re-saving the loaded store reproduces the image bit for bit.
  EXPECT_EQ(Re.save(), Image);

  vm::RunResult R = runFromStore(Re);
  ASSERT_TRUE(R.Ok) << R.Trap;
  EXPECT_EQ(R.Output, Eager.Output);
  EXPECT_EQ(R.ExitCode, Eager.ExitCode);
  EXPECT_EQ(R.Steps, Eager.Steps);
}

TEST(PerPageStore, UniformOutcomesWriteNoChainTable) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  StoreOptions Plain;
  Plain.PageTargetBytes = 64;
  std::unique_ptr<CodeStore> Base = mustBuildStore(P, Primary, Plain);
  ASSERT_NE(Base, nullptr);
  EXPECT_FALSE(Base->perPageChains());
  std::vector<uint8_t> BaseImage = Base->save();
  EXPECT_FALSE(manifestFlags(BaseImage) & ChainTableFlag);

  // Candidates that duplicate the primary collapse to a single chain.
  StoreOptions Dup = Plain;
  Dup.CandidateChains = {Primary, Primary};
  std::unique_ptr<CodeStore> D = mustBuildStore(P, Primary, Dup);
  ASSERT_NE(D, nullptr);
  EXPECT_FALSE(D->perPageChains());
  EXPECT_EQ(D->save(), BaseImage);
  for (uint32_t I = 0; I != D->frameCount(); ++I)
    EXPECT_EQ(D->frameChainSpec(I), Primary) << "frame " << I;

  // A candidate that never beats the primary (flate over flate output
  // only adds framing): the selection runs, every frame picks chain 0,
  // and the result normalizes to the plain image.
  std::unique_ptr<CodeStore> FlateBase =
      mustBuildStore(P, "vm-compact+flate", Plain);
  ASSERT_NE(FlateBase, nullptr);
  StoreOptions Losing = Plain;
  Losing.CandidateChains = {"vm-compact+flate+flate"};
  std::unique_ptr<CodeStore> L = mustBuildStore(P, "vm-compact+flate", Losing);
  ASSERT_NE(L, nullptr);
  EXPECT_FALSE(L->perPageChains());
  EXPECT_EQ(L->save(), FlateBase->save());
}

TEST(PerPageStore, RejectsCandidateOfDifferentBodyKind) {
  vm::VMProgram P = buildVM(syntheticSource(4));
  StoreOptions Opts;
  Opts.CandidateChains = {"brisc"}; // FuncImage vs vm-compact's FixedCode.
  std::string Err;
  std::unique_ptr<CodeStore> S = CodeStore::build(P, Primary, Opts, Err);
  EXPECT_EQ(S, nullptr);
  EXPECT_NE(Err.find("different frame body kind"), std::string::npos) << Err;

  Opts.CandidateChains = {"no-such-codec"};
  S = CodeStore::build(P, Primary, Opts, Err);
  EXPECT_EQ(S, nullptr);
}

TEST(PerPageStore, CraftedChainTablesFailTyped) {
  vm::VMProgram P = buildVM(syntheticSource(10));
  std::unique_ptr<CodeStore> Sel = mustBuildStore(P, Primary, perPageOpts(64));
  ASSERT_NE(Sel, nullptr);
  ASSERT_TRUE(Sel->perPageChains());
  std::vector<uint8_t> Image = Sel->save();
  Result<pipeline::Container> C = pipeline::tryUnpackContainer(Image);
  ASSERT_TRUE(C.ok());
  const std::vector<uint8_t> &M = C.value().Frames[0];
  // Layout: magic(4) version(1) flags(1) hash(8) bodyTag(1), then, with
  // the chain-table flag, varU NumChains at 15 and the chain-spec
  // strings.
  ASSERT_EQ(M[4], 3);
  ASSERT_TRUE(M[5] & ChainTableFlag);
  const size_t ChainCountOff = 15;
  ASSERT_LT(M[ChainCountOff], 128) << "chain count varU is one byte";

  { // Chain count below the table minimum.
    std::vector<uint8_t> X = M;
    X[ChainCountOff] = 1;
    expectLoadFails(withManifest(Image, X), "chain count out of range");
  }
  { // Chain count above the cap.
    std::vector<uint8_t> X = M;
    X[ChainCountOff] = 65;
    expectLoadFails(withManifest(Image, X), "chain count out of range");
  }
  { // Table head rerouted away from the container spec.
    std::vector<uint8_t> X = M;
    X[ChainCountOff + 2] ^= 0x01; // First byte of the head spec string.
    expectLoadFails(withManifest(Image, X),
                    "chain table head does not match");
  }
  { // A candidate spec mangled into an unknown codec.
    std::vector<uint8_t> X = M;
    size_t HeadLen = M[ChainCountOff + 1];
    size_t Spec1 = ChainCountOff + 2 + HeadLen; // varU len of spec 1.
    X[Spec1 + 1] ^= 0x01;
    expectLoadFails(withManifest(Image, X), "per-page chain");
  }
  { // A per-frame index past the chain table (the indices are the last
    // bytes of the manifest, one single-byte varU per frame).
    std::vector<uint8_t> X = M;
    X.back() = 63;
    expectLoadFails(withManifest(Image, X), "chain index out of range");
  }
  { // The flag cleared: the table bytes no longer parse as a manifest.
    std::vector<uint8_t> X = M;
    X[5] &= static_cast<uint8_t>(~ChainTableFlag);
    EXPECT_FALSE(
        CodeStore::tryLoad(withManifest(Image, X), StoreOptions()).ok());
  }
  { // The flag set on a uniform image: no table where one is promised.
    std::unique_ptr<CodeStore> Plain =
        mustBuildStore(P, Primary, [] {
          StoreOptions O;
          O.PageTargetBytes = 64;
          return O;
        }());
    ASSERT_NE(Plain, nullptr);
    std::vector<uint8_t> PlainImage = Plain->save();
    Result<pipeline::Container> PC = pipeline::tryUnpackContainer(PlainImage);
    ASSERT_TRUE(PC.ok());
    std::vector<uint8_t> X = PC.value().Frames[0];
    X[5] |= ChainTableFlag;
    EXPECT_FALSE(
        CodeStore::tryLoad(withManifest(PlainImage, X), StoreOptions()).ok());
  }
}

// The tsan-preset hammer: many threads fault every function of a
// mixed-chain store concurrently, under a budget small enough to force
// eviction and re-decode, and every body must match the eager decode.
TEST(PerPageStore, ConcurrentMixedChainFaultsMatchEager) {
  vm::VMProgram P = buildVM(syntheticSource(10));
  StoreOptions Opts = perPageOpts(64);
  Opts.CacheBudgetBytes = 4096; // Thrash: decode, evict, decode again.
  std::unique_ptr<CodeStore> S = mustBuildStore(P, Primary, Opts);
  ASSERT_NE(S, nullptr);
  ASSERT_TRUE(S->perPageChains());

  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != 8; ++T)
    Threads.emplace_back([&] {
      for (int Round = 0; Round != 4; ++Round)
        for (uint32_t Fn = 0; Fn != S->functionCount(); ++Fn) {
          Result<std::shared_ptr<const vm::VMFunction>> R = S->fault(Fn);
          if (!R.ok() || R.value()->Code.size() != P.Functions[Fn].Code.size())
            Failures.fetch_add(1, std::memory_order_relaxed);
        }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
}


// The selection payoff (EXPERIMENTS E12): on the icc class at 256 B
// pages, choosing a chain per page out of six candidates must be
// non-uniform and strictly smaller than the best of those chains used
// for every page, and every build, plus the saved and reloaded
// selected image, must run exactly like the eager run.
TEST(PerPageStore, SelectionBeatsBestSingleChainOnIcc) {
  const std::vector<std::string> Chains = {
      "vm-compact", "vm-compact+flate", "flate",
      "bwt-dict",   "brisc-ctx",        "brisc-ctx+flate"};
  vm::VMProgram P = buildVM(corpus::sizeClassSource("icc"));
  vm::RunResult Eager = vm::runProgram(P);
  ASSERT_TRUE(Eager.Ok) << Eager.Trap;
  size_t DecodedBytes = 0;
  for (const vm::VMFunction &F : P.Functions)
    DecodedBytes += decodedCostBytes(F);
  StoreOptions Opts;
  Opts.PageTargetBytes = 256;
  Opts.CacheBudgetBytes = DecodedBytes * 2;

  auto expectEager = [&](CodeStore &S, const std::string &Ctx) {
    vm::RunResult R = runFromStore(S);
    EXPECT_TRUE(R.Ok) << Ctx << ": " << R.Trap;
    EXPECT_EQ(R.Output, Eager.Output) << Ctx;
    EXPECT_EQ(R.ExitCode, Eager.ExitCode) << Ctx;
    EXPECT_EQ(R.Steps, Eager.Steps) << Ctx;
  };

  size_t BestSingle = ~size_t(0);
  for (const std::string &CS : Chains) {
    std::unique_ptr<CodeStore> S = mustBuildStore(P, CS, Opts);
    ASSERT_NE(S, nullptr);
    expectEager(*S, CS);
    BestSingle = std::min(BestSingle, S->frameBytes());
  }

  StoreOptions SelOpts = Opts;
  SelOpts.CandidateChains.assign(Chains.begin() + 1, Chains.end());
  std::unique_ptr<CodeStore> Sel = mustBuildStore(P, Chains[0], SelOpts);
  ASSERT_NE(Sel, nullptr);
  expectEager(*Sel, "per-page");
  EXPECT_TRUE(Sel->perPageChains()) << "selection was uniform";
  // Recorded: 288,584 per-page bytes against bwt-dict's 298,137.
  EXPECT_LT(Sel->frameBytes(), BestSingle);

  Result<std::unique_ptr<CodeStore>> Re =
      CodeStore::tryLoad(Sel->save(), StoreOptions());
  ASSERT_TRUE(Re.ok()) << Re.error().message();
  expectEager(*Re.value(), "reloaded per-page");
}

} // namespace
