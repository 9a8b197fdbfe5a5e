//===- tests/test_fault_injection.cpp - Decoder corruption sweeps ------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// Drives every delivery-format decoder through thousands of seeded,
// reproducible corruptions (bit flips, byte substitutions, truncations,
// inserted garbage, inflated length fields, zero runs) and asserts each
// corrupted buffer either decodes cleanly or is rejected with a typed
// DecodeError — never a crash, hang, or out-of-bounds access. Run under
// the `asan` CMake preset to have the sanitizers check the last part.
//
// A failing case prints its Fault (kind, offset, count, seed), which
// replays deterministically through applyFault().
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "brisc/Brisc.h"
#include "flate/Flate.h"
#include "pipeline/Codec.h"
#include "pipeline/Payload.h"
#include "pipeline/Pipeline.h"
#include "pipeline/Profile.h"
#include "store/CodeStore.h"
#include "store/FrameSource.h"
#include "store/Trace.h"
#include "support/BitStream.h"
#include "support/ByteIO.h"
#include "support/FaultInject.h"
#include "support/Huffman.h"
#include "vm/Encode.h"
#include "wire/Wire.h"

#include <algorithm>
#include <fstream>
#include <iterator>

using namespace ccomp;
using namespace ccomp::test;

namespace {

/// Rounds per (buffer, decoder) sweep. The suite must total >= 1000
/// corruptions across flate + wire (4 levels) + brisc + vm.
constexpr unsigned Rounds = 160;

/// Sweeps \p Valid through \p Decode and sanity-checks the outcome mix:
/// at least one corruption must have been rejected (a harness that never
/// trips a decoder is not corrupting), and none may escape as anything
/// but a clean bool (DecodeError escapes are caught by the Result-based
/// decoders themselves; any other escape fails the test here).
void sweep(const std::vector<uint8_t> &Valid, uint64_t Seed,
           const std::function<bool(const std::vector<uint8_t> &)> &Decode,
           const char *What) {
  ASSERT_FALSE(Valid.empty()) << What;
  Fault Last;
  size_t Rejected = 0;
  try {
    Rejected = corruptionSweep(Valid, Seed, Rounds, Decode, &Last);
  } catch (const std::exception &E) {
    FAIL() << What << ": decoder escaped on fault {" << Last.str()
           << "}: " << E.what();
  }
  EXPECT_GT(Rejected, 0u) << What << ": no corruption was ever rejected";
}

std::vector<uint8_t> flateCorpusBuffer(uint64_t Seed) {
  // Mixed runs/ramps/noise so all block types (stored + dynamic) appear.
  PRNG Rng(Seed);
  std::vector<uint8_t> In;
  while (In.size() < 30000) {
    unsigned Mode = static_cast<unsigned>(Rng.below(3));
    size_t Len = 1 + Rng.below(300);
    uint8_t B = static_cast<uint8_t>(Rng.next());
    for (size_t K = 0; K != Len; ++K)
      In.push_back(Mode == 0   ? B
                   : Mode == 1 ? static_cast<uint8_t>(In.size() & 0xFF)
                               : static_cast<uint8_t>(Rng.next()));
  }
  return In;
}

} // namespace

//===----------------------------------------------------------------------===//
// flate
//===----------------------------------------------------------------------===//

TEST(FaultInjection, FlateSurvivesCorruption) {
  for (uint64_t Seed : {1u, 2u}) {
    std::vector<uint8_t> In = flateCorpusBuffer(Seed);
    std::vector<uint8_t> Z = flate::compress(In);
    // The uncorrupted image must still round-trip.
    Result<std::vector<uint8_t>> Clean = flate::tryDecompress(Z);
    ASSERT_TRUE(Clean.ok()) << Clean.error().message();
    ASSERT_EQ(Clean.value(), In);

    sweep(Z, 1000 + Seed, [&](const std::vector<uint8_t> &Bad) {
      Result<std::vector<uint8_t>> R = flate::tryDecompress(Bad);
      return R.ok();
    }, "flate");
  }
}

//===----------------------------------------------------------------------===//
// wire (all four pipeline levels)
//===----------------------------------------------------------------------===//

TEST(FaultInjection, WireSurvivesCorruptionAtEveryPipelineLevel) {
  std::unique_ptr<ir::Module> M = compileC(syntheticSource(24));
  ASSERT_TRUE(M);
  for (wire::Pipeline P :
       {wire::Pipeline::Naive, wire::Pipeline::Streams,
        wire::Pipeline::StreamsMTF, wire::Pipeline::Full}) {
    std::vector<uint8_t> Z = wire::compress(*M, P);
    std::string Error;
    ASSERT_TRUE(wire::decompress(Z, Error)) << Error;

    sweep(Z, 2000 + static_cast<uint64_t>(P),
          [&](const std::vector<uint8_t> &Bad) {
            std::string Err;
            std::unique_ptr<ir::Module> Back = wire::decompress(Bad, Err);
            // The (module, error) contract: exactly one of the two.
            EXPECT_NE(Back == nullptr, Err.empty());
            return Back != nullptr;
          },
          "wire");
  }
}

//===----------------------------------------------------------------------===//
// brisc images (with and without the data segment), chained into the
// loader: a corrupt image that still parses must also fail cleanly (or
// succeed) in decodeToVM and vm::verify, never crash.
//===----------------------------------------------------------------------===//

TEST(FaultInjection, BriscImageSurvivesCorruptionThroughLoader) {
  vm::VMProgram P = buildVM(syntheticSource(12));
  brisc::BriscProgram B = brisc::compress(P);
  for (bool IncludeData : {true, false}) {
    std::vector<uint8_t> Img = B.serialize(IncludeData);
    Result<brisc::BriscProgram> Clean = brisc::BriscProgram::parse(Img);
    ASSERT_TRUE(Clean.ok()) << Clean.error().message();

    sweep(Img, 3000 + (IncludeData ? 1 : 0),
          [&](const std::vector<uint8_t> &Bad) {
            Result<brisc::BriscProgram> R = brisc::BriscProgram::parse(Bad);
            if (!R.ok())
              return false;
            // Parsed: push the survivor through the loader too.
            Result<vm::VMProgram> V = brisc::tryDecodeToVM(R.value());
            if (!V.ok())
              return false;
            // Whatever verify says is acceptable; it must just not crash.
            (void)vm::verify(V.value());
            return true;
          },
          "brisc");
  }
}

//===----------------------------------------------------------------------===//
// BRISC page frames: the direct route and the function-image route
//===----------------------------------------------------------------------===//

namespace {

/// The page route every codec inherits: payload, then
/// tryDecodePagePayload.
Result<std::vector<vm::Instr>>
viaPayload(const pipeline::Codec &C, ByteSpan Frame,
           const std::vector<uint32_t> &Labels) {
  Result<std::vector<uint8_t>> Payload = C.tryDecompress(Frame);
  if (!Payload.ok())
    return Payload.error();
  return pipeline::tryDecodePagePayload(C.payloadKind(), Payload.value(),
                                        Labels);
}

/// Decodes \p Frame both ways; both must fail with the same message.
void expectBothRoutesFail(const std::vector<uint8_t> &Frame,
                          const std::vector<uint32_t> &Labels,
                          const std::string &Want, const char *What) {
  const pipeline::Codec &Brisc = *pipeline::Registry::instance().find("brisc");
  Result<std::vector<vm::Instr>> Direct = Brisc.tryDecodePage(Frame, Labels);
  Result<std::vector<vm::Instr>> Image = viaPayload(Brisc, Frame, Labels);
  ASSERT_FALSE(Direct.ok()) << What;
  ASSERT_FALSE(Image.ok()) << What;
  EXPECT_EQ(Direct.error().message(), Want) << What;
  EXPECT_EQ(Image.error().message(), Want) << What;
}

/// One whole-function page of a function with branches, BRISC-coded.
struct BriscPage {
  std::vector<vm::Instr> Code;
  std::vector<uint32_t> Labels;
  std::vector<uint8_t> Frame;
};

BriscPage briscPage() {
  vm::VMProgram P = buildVM(syntheticSource(12));
  for (const vm::VMFunction &F : P.Functions) {
    std::vector<pipeline::PageChunk> Pages =
        pipeline::splitFunctionPages(F, 0);
    BriscPage B;
    B.Code = Pages[0].Code;
    std::vector<uint8_t> Payload = pipeline::encodePagePayload(
        pipeline::PayloadKind::FuncImage, B.Code, &B.Labels);
    if (B.Labels.size() < 3)
      continue;
    B.Frame = pipeline::Registry::instance().find("brisc")->compress(Payload);
    return B;
  }
  ADD_FAILURE() << "no function with three branch labels";
  return {};
}

} // namespace

TEST(FaultInjection, CraftedBriscPageFramesFailTypedOnBothRoutes) {
  BriscPage Page = briscPage();
  ASSERT_FALSE(Page.Frame.empty());

  // A branch whose instruction index lies past the page's label table.
  std::vector<uint32_t> Short(Page.Labels.begin(), Page.Labels.end() - 1);
  expectBothRoutesFail(Page.Frame, Short,
                       "page: branch rank outside the page label table",
                       "short label table");

  Result<brisc::BriscProgram> Clean = brisc::BriscProgram::parse(Page.Frame);
  ASSERT_TRUE(Clean.ok()) << Clean.error().message();
  ASSERT_EQ(Clean.value().Funcs.size(), 1u);

  // A block offset inside an instruction's operand bytes.
  bool Found = false;
  const brisc::BriscFunction &BF = Clean.value().Funcs[0];
  for (uint32_t Off = 1; Off < BF.Code.size() && !Found; ++Off) {
    brisc::BriscProgram B = Clean.value();
    std::vector<uint32_t> &BB = B.Funcs[0].BBOffsets;
    auto It = std::lower_bound(BB.begin(), BB.end(), Off);
    if (It != BB.end() && *It == Off)
      continue;
    BB.insert(It, Off);
    Result<vm::VMProgram> V = brisc::tryDecodeToVM(B);
    if (V.ok() ||
        V.error().message() != "brisc: block offset not at a slot boundary")
      continue;
    Found = true;
    expectBothRoutesFail(B.serialize(/*IncludeData=*/true), Page.Labels,
                         "brisc: block offset not at a slot boundary",
                         "off-slot block offset");
  }
  EXPECT_TRUE(Found) << "no operand byte to point a block offset into";

  // An escaped pattern id past the dictionary.
  brisc::BriscProgram B = Clean.value();
  B.Funcs[0].Code = {255, 0xFF, 0xFF};
  B.Funcs[0].BBOffsets = {0};
  expectBothRoutesFail(B.serialize(/*IncludeData=*/true), Page.Labels,
                       "brisc: bad pattern id", "bad pattern id");
}

TEST(FaultInjection, BriscPageRoutesAgreeOnCorruptFrames) {
  // Every corrupted page frame either decodes to the same instructions
  // on both routes or fails on both.
  BriscPage Page = briscPage();
  const pipeline::Codec &Brisc = *pipeline::Registry::instance().find("brisc");
  sweep(Page.Frame, 3100,
        [&](const std::vector<uint8_t> &Bad) {
          Result<std::vector<vm::Instr>> Direct =
              Brisc.tryDecodePage(Bad, Page.Labels);
          Result<std::vector<vm::Instr>> Image =
              viaPayload(Brisc, Bad, Page.Labels);
          EXPECT_EQ(Direct.ok(), Image.ok());
          if (Direct.ok() && Image.ok()) {
            EXPECT_EQ(Direct.value(), Image.value());
          }
          return Direct.ok();
        },
        "brisc page");
}

//===----------------------------------------------------------------------===//
// vm fixed-width and compact function encodings
//===----------------------------------------------------------------------===//

TEST(FaultInjection, VMEncodingsSurviveCorruption) {
  vm::VMProgram P = buildVM(syntheticSource(6));
  ASSERT_FALSE(P.Functions.empty());
  const vm::VMFunction &F = P.Functions[0];

  std::vector<uint8_t> Fixed = vm::encodeFunction(F);
  sweep(Fixed, 4001, [](const std::vector<uint8_t> &Bad) {
    return vm::tryDecodeFunction(Bad).ok();
  }, "vm fixed-width");

  std::vector<uint8_t> Compact = vm::encodeFunctionCompact(F);
  sweep(Compact, 4002, [](const std::vector<uint8_t> &Bad) {
    return vm::tryDecodeFunctionCompact(Bad).ok();
  }, "vm compact");
}

//===----------------------------------------------------------------------===//
// bwt-dict and brisc-ctx codec frames: both decoders run over
// attacker-controlled container bytes like every other delivery format,
// so both get the seeded sweep — corrupt frames decode cleanly or fail
// typed, never crash, hang, or over-allocate (asan preset checks).
//===----------------------------------------------------------------------===//

TEST(FaultInjection, BwtDictAndBriscCtxFramesSurviveCorruption) {
  vm::VMProgram P = buildVM(syntheticSource(10));
  ASSERT_FALSE(P.Functions.empty());
  // Both codecs consume fixed-width function encodings (FixedCode /
  // Raw payloads are the same bytes).
  std::vector<uint8_t> Payload = vm::encodeFunction(P.Functions[0]);

  for (const char *Name : {"bwt-dict", "brisc-ctx"}) {
    const pipeline::Codec *C = pipeline::Registry::instance().find(Name);
    ASSERT_NE(C, nullptr) << Name;
    std::vector<uint8_t> Frame = C->compress(Payload);
    Result<std::vector<uint8_t>> Clean = C->tryDecompress(Frame);
    ASSERT_TRUE(Clean.ok()) << Name << ": " << Clean.error().message();
    ASSERT_EQ(Clean.value(), Payload) << Name;

    sweep(Frame, Name[1] == 'w' ? 8001 : 8002,
          [&](const std::vector<uint8_t> &Bad) {
            return C->tryDecompress(Bad).ok();
          },
          Name);
  }
}

// A hand-built bwt-dict frame whose MTF stream re-announces an
// already-known byte as "new". The encoder never emits this shape (a
// seen symbol is addressed through the table), so it only appears in a
// corrupt or hostile stream — and before the duplicate reject existed,
// a long run of such tokens grew the decoder table without bound. The
// reject must be a typed error naming the duplicate.
TEST(FaultInjection, BwtDictRejectsDuplicateNewSymbolBomb) {
  // Alphabet {0}: the single 1-bit code '0' maps to MTF index 0 ("new
  // symbol"), so every token is index 0 followed by an 8-bit literal.
  std::vector<uint8_t> Lens = {1};
  ASSERT_TRUE(HuffmanCode::isValidLengthSet(Lens));
  HuffmanCode Code(Lens);
  BitWriter BW;
  for (int I = 0; I != 2; ++I) {
    Code.encode(BW, 0);
    BW.writeBits(5, 8); // The same literal twice: the second is the bomb.
  }
  std::vector<uint8_t> Bits = BW.finish();

  ByteWriter W;
  W.writeU8('B');
  W.writeU8('D');
  W.writeU8(1);          // version
  W.writeVarU(4);        // OrigLen: within the bit budget
  W.writeVarU(0);        // Primary
  W.writeVarU(1);        // NumSyms
  W.writeU8(Lens[0]);    // nibble-packed lengths (one nibble used)
  W.writeVarU(Bits.size());
  W.writeBytes(Bits);

  const pipeline::Codec *C = pipeline::Registry::instance().find("bwt-dict");
  ASSERT_NE(C, nullptr);
  Result<std::vector<uint8_t>> R = C->tryDecompress(W.take());
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().message().find("duplicate new-symbol"),
            std::string::npos)
      << R.error().message();
}

//===----------------------------------------------------------------------===//
// Store containers: manifest, frame table, and frames. Corruption must
// surface as a typed load or fault error, whether the container is
// parsed from memory (tryLoad) or demand-read from disk through a
// FileFrameSource's offset table (tryOpenFile).
//===----------------------------------------------------------------------===//

namespace {

/// A store image at the default page target: one page per function.
std::vector<uint8_t> storeImage(const vm::VMProgram &P,
                                const std::string &Chain) {
  std::string Err;
  std::unique_ptr<store::CodeStore> S =
      store::CodeStore::build(P, Chain, store::StoreOptions(), Err);
  EXPECT_NE(S, nullptr) << Chain << ": " << Err;
  return S->save();
}

/// Loads a (possibly corrupt) store and faults every function, both
/// assembled and as its first page's span: true only if everything
/// decoded cleanly.
bool faultAll(Result<std::unique_ptr<store::CodeStore>> L) {
  if (!L.ok())
    return false;
  std::unique_ptr<store::CodeStore> S = L.take();
  for (uint32_t I = 0; I != S->functionCount(); ++I)
    if (!S->fault(I).ok() || !S->faultSpan(I, 0).ok())
      return false;
  return true;
}

} // namespace

TEST(FaultInjection, StoreContainerSurvivesCorruptionInMemory) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  for (const char *Chain : {"flate", "brisc+flate"}) {
    std::vector<uint8_t> Img = storeImage(P, Chain);
    ASSERT_TRUE(faultAll(store::CodeStore::tryLoad(Img, store::StoreOptions())))
        << Chain << ": the uncorrupted image must serve";

    sweep(Img, 5000, [&](const std::vector<uint8_t> &Bad) {
      return faultAll(store::CodeStore::tryLoad(Bad, store::StoreOptions()));
    }, "store tryLoad");
  }
}

TEST(FaultInjection, StoreFileSurvivesCorruptionOnDisk) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  std::vector<uint8_t> Img = storeImage(P, "vm-compact+flate");
  const std::string Path = testing::TempDir() + "ccomp_fault_store.ccpk";

  auto OpenCorrupt = [&](const std::vector<uint8_t> &Bad) {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(reinterpret_cast<const char *>(Bad.data()),
              static_cast<std::streamsize>(Bad.size()));
    Out.close();
    return faultAll(store::CodeStore::tryOpenFile(Path, store::StoreOptions()));
  };
  ASSERT_TRUE(OpenCorrupt(Img)) << "the uncorrupted file must serve";

  sweep(Img, 5100, OpenCorrupt, "store tryOpenFile");
}

// Many pages per function: the per-function page table is
// attacker-controlled input too, and a dense one has many more entries
// to corrupt than one page per function. Seeded corruption of the whole
// image must stay recoverable through load, whole-function assembly,
// and page-granular spans.
TEST(FaultInjection, PagedStoreContainerSurvivesCorruption) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  for (const char *Chain : {"flate", "brisc+flate"}) {
    std::string Err;
    store::StoreOptions SO;
    SO.PageTargetBytes = 64; // Many small pages: a dense page table.
    std::unique_ptr<store::CodeStore> Built =
        store::CodeStore::build(P, Chain, SO, Err);
    ASSERT_NE(Built, nullptr) << Chain << ": " << Err;
    std::vector<uint8_t> Img = Built->save();

    auto FaultAllSpans = [](Result<std::unique_ptr<store::CodeStore>> L) {
      if (!L.ok())
        return false;
      std::unique_ptr<store::CodeStore> S = L.take();
      for (uint32_t I = 0; I != S->functionCount(); ++I) {
        if (!S->fault(I).ok())
          return false;
        if (!S->faultSpan(I, 0).ok())
          return false;
      }
      return true;
    };
    ASSERT_TRUE(
        FaultAllSpans(store::CodeStore::tryLoad(Img, store::StoreOptions())))
        << Chain << ": the uncorrupted paged image must serve";

    sweep(Img, 5200, [&](const std::vector<uint8_t> &Bad) {
      return FaultAllSpans(
          store::CodeStore::tryLoad(Bad, store::StoreOptions()));
    }, "paged store tryLoad");
  }
}

namespace {

/// Writes the fixed head of a store manifest: magic, version 3, the
/// required page-table flag, a zero content-hash claim (a private
/// in-memory load re-hashes the frames itself) and \p BodyTag — 1 for
/// fixed-code chains (flate), 0 for function images.
void writePagedManifestHead(ByteWriter &W, uint8_t BodyTag) {
  W.writeU32(0x4D534343); // CCSM
  W.writeU8(3);           // manifest version
  W.writeU8(1);           // flags: page table
  W.writeU64(0);          // content-hash claim
  W.writeU8(BodyTag);
}

/// Packs \p Manifest plus \p NumFrames junk frames into a \p Chain
/// container.
std::vector<uint8_t> packWithJunkFrames(std::vector<uint8_t> Manifest,
                                        size_t NumFrames,
                                        const std::string &Chain) {
  std::vector<std::vector<uint8_t>> Frames;
  Frames.push_back(std::move(Manifest));
  for (size_t I = 0; I != NumFrames; ++I)
    Frames.push_back({1, 2, 3}); // Junk every codec rejects.
  return pipeline::packContainer(Chain, Frames);
}

/// Packs a crafted paged store manifest with an empty skeleton plus \p
/// NumFrames junk frames, for targeted page-table attacks.
std::vector<uint8_t>
craftedPagedImage(const std::function<void(ByteWriter &)> &WriteFuncs,
                  size_t NumFrames, const std::string &Chain = "flate",
                  uint8_t BodyTag = 1) {
  ByteWriter W;
  writePagedManifestHead(W, BodyTag);
  W.writeVarU(0); // Entry
  W.writeVarU(0); // GlobalBase
  W.writeVarU(0); // GlobalEnd
  W.writeVarU(0); // no globals
  WriteFuncs(W);
  return packWithJunkFrames(W.take(), NumFrames, Chain);
}

/// The 32-bit manifest fields, in the order a paged function-image
/// manifest stores them.
const char *const WideFieldNames[] = {
    "entry",      "global base", "global end",  "global addr",
    "global size", "frame size", "code length", "function label",
    "page instruction count",    "page label"};

/// A valid one-global, one-function, one-page brisc manifest whose
/// field number \p Wide (an index into WideFieldNames; -1 for none)
/// carries its value plus 2^32 — the value a loader that truncates
/// 64-bit varints to 32 bits would read back unchanged.
std::vector<uint8_t> craftedWideFieldImage(int Wide) {
  constexpr uint64_t Wrap = uint64_t(1) << 32;
  int Field = 0;
  ByteWriter W;
  auto Put = [&](uint64_t V) { W.writeVarU(Field++ == Wide ? V + Wrap : V); };
  writePagedManifestHead(W, /*BodyTag=*/0);
  Put(0); // Entry
  Put(0); // GlobalBase
  Put(8); // GlobalEnd
  W.writeVarU(1);
  W.writeStr("g");
  Put(0); // Addr
  Put(4); // Size
  W.writeVarU(0); // no initializer
  W.writeVarU(1);
  W.writeStr("f");
  Put(0); // FrameSize
  Put(2); // CodeLen
  W.writeVarU(1);
  Put(0); // the function's one label
  W.writeVarU(1);
  Put(2); // the page's instruction count
  W.writeVarU(1);
  Put(0); // the page's one label
  return packWithJunkFrames(W.take(), 1, "brisc");
}

} // namespace

// Hand-built page-table attacks: truncated tables, out-of-range page
// extents, and reserve-bomb counts must all surface as typed errors —
// at load where the manifest itself is inconsistent, at fault where
// only the frame bytes can prove the lie — and never abort or allocate
// ahead of decoded content. The asan preset runs these with the
// allocator checked.
TEST(FaultInjection, PagedManifestRejectsCraftedAttacks) {
  store::StoreOptions SO;

  auto ExpectLoadFails = [&](const std::vector<uint8_t> &Img,
                             const char *Needle) {
    Result<std::unique_ptr<store::CodeStore>> L = store::CodeStore::tryLoad(Img, SO);
    ASSERT_FALSE(L.ok()) << Needle;
    EXPECT_NE(L.error().message().find(Needle), std::string::npos)
        << L.error().message();
  };

  // Truncated page table: the function claims two pages, the manifest
  // ends after the first entry.
  ExpectLoadFails(craftedPagedImage(
                      [](ByteWriter &W) {
                        W.writeVarU(1); // one function
                        W.writeStr("f");
                        W.writeVarU(0); // FrameSize
                        W.writeVarU(4); // CodeLen
                        W.writeVarU(0); // no labels
                        W.writeVarU(2); // two pages...
                        W.writeVarU(2); // ...but only one entry
                      },
                      2),
                  "past end");

  // Reserve-bomb page count.
  ExpectLoadFails(craftedPagedImage(
                      [](ByteWriter &W) {
                        W.writeVarU(1);
                        W.writeStr("f");
                        W.writeVarU(0);
                        W.writeVarU(4);
                        W.writeVarU(0);
                        W.writeVarU(uint64_t(1) << 50); // page count bomb
                      },
                      1),
                  "inflated page count");

  // A page extending past the function.
  ExpectLoadFails(craftedPagedImage(
                      [](ByteWriter &W) {
                        W.writeVarU(1);
                        W.writeStr("f");
                        W.writeVarU(0);
                        W.writeVarU(4); // CodeLen 4
                        W.writeVarU(0);
                        W.writeVarU(1);
                        W.writeVarU(10); // one 10-instruction page
                      },
                      1),
                  "overruns the function");

  // A page table that stops short of the function's end.
  ExpectLoadFails(craftedPagedImage(
                      [](ByteWriter &W) {
                        W.writeVarU(1);
                        W.writeStr("f");
                        W.writeVarU(0);
                        W.writeVarU(4);
                        W.writeVarU(0);
                        W.writeVarU(1);
                        W.writeVarU(2); // covers 2 of 4 instructions
                      },
                      1),
                  "does not cover");

  // An empty page inside a nonempty function.
  ExpectLoadFails(craftedPagedImage(
                      [](ByteWriter &W) {
                        W.writeVarU(1);
                        W.writeStr("f");
                        W.writeVarU(0);
                        W.writeVarU(4);
                        W.writeVarU(0);
                        W.writeVarU(2);
                        W.writeVarU(0); // empty page
                        W.writeVarU(4);
                      },
                      2),
                  "empty page");

  // A branch label landing past the function's end.
  ExpectLoadFails(craftedPagedImage(
                      [](ByteWriter &W) {
                        W.writeVarU(1);
                        W.writeStr("f");
                        W.writeVarU(0);
                        W.writeVarU(4);
                        W.writeVarU(1);
                        W.writeVarU(9); // label at 9 of 4
                        W.writeVarU(1);
                        W.writeVarU(4);
                      },
                      1),
                  "label past the end");

  // A page-label rank pointing outside the function's label table
  // (image chains only).
  ExpectLoadFails(craftedPagedImage(
                      [](ByteWriter &W) {
                        W.writeVarU(1);
                        W.writeStr("f");
                        W.writeVarU(0);
                        W.writeVarU(2);
                        W.writeVarU(1);
                        W.writeVarU(0); // one label, at 0
                        W.writeVarU(1);
                        W.writeVarU(2); // one 2-instruction page
                        W.writeVarU(1);
                        W.writeVarU(5); // page label 5 of 1
                      },
                      1, "brisc", /*BodyTag=*/0),
                  "page label out of range");

  // Page count disagreeing with the container's frame count.
  ExpectLoadFails(craftedPagedImage(
                      [](ByteWriter &W) {
                        W.writeVarU(1);
                        W.writeStr("f");
                        W.writeVarU(0);
                        W.writeVarU(4);
                        W.writeVarU(0);
                        W.writeVarU(1);
                        W.writeVarU(4);
                      },
                      3),
                  "does not match");

  // A consistent-but-absurd page table (2^31 instructions in one page)
  // parses, but faulting it must fail typed on the junk frame without
  // allocating 2^31 instructions first.
  {
    std::vector<uint8_t> Img = craftedPagedImage(
        [](ByteWriter &W) {
          W.writeVarU(1);
          W.writeStr("f");
          W.writeVarU(0);
          W.writeVarU(uint64_t(1) << 31);
          W.writeVarU(0);
          W.writeVarU(1);
          W.writeVarU(uint64_t(1) << 31);
        },
        1);
    Result<std::unique_ptr<store::CodeStore>> L =
        store::CodeStore::tryLoad(Img, SO);
    ASSERT_TRUE(L.ok()) << L.error().message();
    std::unique_ptr<store::CodeStore> S = L.take();
    Result<std::shared_ptr<const vm::VMFunction>> F = S->fault(0);
    ASSERT_FALSE(F.ok());
    Result<vm::CodeSpan> Sp = S->faultSpan(0, 5);
    ASSERT_FALSE(Sp.ok());
    EXPECT_EQ(S->stats().DecodeErrors, 2u);
  }
}

// Every 32-bit manifest field is range-checked: a varint above
// UINT32_MAX fails the load typed instead of wrapping into a valid-
// looking value (2^32 + 4 would otherwise read back as 4).
TEST(FaultInjection, ManifestRejectsWide32BitFields) {
  Result<std::unique_ptr<store::CodeStore>> Clean =
      store::CodeStore::tryLoad(craftedWideFieldImage(-1),
                                store::StoreOptions());
  ASSERT_TRUE(Clean.ok()) << Clean.error().message();
  for (int F = 0; F != int(std::size(WideFieldNames)); ++F) {
    Result<std::unique_ptr<store::CodeStore>> L = store::CodeStore::tryLoad(
        craftedWideFieldImage(F), store::StoreOptions());
    if (L.ok()) {
      ADD_FAILURE() << WideFieldNames[F] << " wrapped to 32 bits";
      continue;
    }
    EXPECT_NE(L.error().message().find("exceeds 32 bits"), std::string::npos)
        << WideFieldNames[F] << ": " << L.error().message();
  }
}

// The manifest carries a content-hash claim at a fixed offset (bytes
// [6,14) of the manifest frame). A doctored or corrupt claim is exactly
// the cross-tenant attack the shared FrameRegistry must refuse: keyed
// into another module's hash it could poison that module's resident
// frames. The contract is a recoverable *typed* error at shared load —
// and a still-working private load, whose registry serves only itself.
TEST(FaultInjection, ManifestHashClaimCorruptionIsTypedNeverPoisoning) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  std::vector<uint8_t> Img = storeImage(P, "brisc+flate");

  Result<pipeline::Container> Unpacked = pipeline::tryUnpackContainer(Img);
  ASSERT_TRUE(Unpacked.ok());
  pipeline::Container Box = Unpacked.take();
  ASSERT_GE(Box.Frames[0].size(), 15u);

  // Deterministic claim corruptions: single bit flips across every
  // claim byte, a zeroed claim, and an all-ones claim.
  std::vector<std::vector<uint8_t>> BadClaims;
  for (size_t Byte = 6; Byte != 14; ++Byte)
    for (unsigned Bit = 0; Bit < 8; Bit += 3) {
      std::vector<uint8_t> M = Box.Frames[0];
      M[Byte] ^= static_cast<uint8_t>(1u << Bit);
      BadClaims.push_back(std::move(M));
    }
  {
    std::vector<uint8_t> Zero = Box.Frames[0];
    std::fill(Zero.begin() + 6, Zero.begin() + 14, 0);
    BadClaims.push_back(std::move(Zero));
    std::vector<uint8_t> Ones = Box.Frames[0];
    std::fill(Ones.begin() + 6, Ones.begin() + 14, 0xFF);
    BadClaims.push_back(std::move(Ones));
  }

  auto Reg = std::make_shared<store::FrameRegistry>();
  for (const std::vector<uint8_t> &M : BadClaims) {
    std::vector<std::vector<uint8_t>> Frames = Box.Frames;
    Frames[0] = M;
    std::vector<uint8_t> Bad = pipeline::packContainer(Box.ChainSpec, Frames);

    store::StoreOptions Shared;
    Shared.SharedRegistry = Reg;
    Result<std::unique_ptr<store::CodeStore>> L =
        store::CodeStore::tryLoad(Bad, Shared);
    ASSERT_FALSE(L.ok()) << "a corrupt hash claim joined a shared registry";
    EXPECT_NE(L.error().message().find("refusing to join"), std::string::npos)
        << L.error().message();

    // The same bytes load privately and every function still serves:
    // the frames are intact, only the claim lied.
    ASSERT_TRUE(faultAll(store::CodeStore::tryLoad(Bad, store::StoreOptions())));
  }

  // Nothing above touched the registry: the genuine module joins it
  // afterwards and decodes from scratch, unpoisoned.
  EXPECT_EQ(Reg->stats().Modules, 0u);
  EXPECT_EQ(Reg->stats().Decodes, 0u);
  store::StoreOptions Shared;
  Shared.SharedRegistry = Reg;
  Result<std::unique_ptr<store::CodeStore>> Good =
      store::CodeStore::tryLoad(Img, Shared);
  ASSERT_TRUE(Good.ok()) << Good.error().message();
  Result<std::shared_ptr<const vm::VMFunction>> F = Good.value()->fault(0);
  ASSERT_TRUE(F.ok());
  EXPECT_EQ(F.value()->Code.size(), P.Functions[0].Code.size());

  // An unknown flag bit is a typed parse error, not a guess.
  {
    std::vector<std::vector<uint8_t>> Frames = Box.Frames;
    Frames[0][5] |= 0x80;
    std::vector<uint8_t> Bad = pipeline::packContainer(Box.ChainSpec, Frames);
    Result<std::unique_ptr<store::CodeStore>> L =
        store::CodeStore::tryLoad(Bad, store::StoreOptions());
    ASSERT_FALSE(L.ok());
    EXPECT_NE(L.error().message().find("unknown manifest flags"),
              std::string::npos);
  }
}

// Seeded corruption sweep against a *shared* registry: whatever the
// corruption does to a container — truncation, bit flips, garbage
// runs — the outcome is load-and-serve or a typed error, and the good
// tenant that shares the registry keeps executing correctly the whole
// time. Run under the asan preset to have the allocator checked.
TEST(FaultInjection, SharedRegistryLoadSurvivesContainerCorruption) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  std::vector<uint8_t> Img = storeImage(P, "brisc+flate");

  auto Reg = std::make_shared<store::FrameRegistry>();
  store::StoreOptions Shared;
  Shared.SharedRegistry = Reg;

  // The resident good tenant whose frames a corrupt load must not reach.
  Result<std::unique_ptr<store::CodeStore>> GoodL =
      store::CodeStore::tryLoad(Img, Shared);
  ASSERT_TRUE(GoodL.ok()) << GoodL.error().message();
  std::unique_ptr<store::CodeStore> Good = GoodL.take();
  Result<vm::CodeSpan> Baseline = Good->faultSpan(0, 0);
  ASSERT_TRUE(Baseline.ok());

  sweep(Img, 5300, [&](const std::vector<uint8_t> &Bad) {
    return faultAll(store::CodeStore::tryLoad(Bad, Shared));
  }, "store tryLoad (shared registry)");

  // Whatever corrupt containers managed to load registered under their
  // *own* computed hashes: the good module's resident frame is still
  // the same object, byte for byte.
  Result<vm::CodeSpan> After = Good->faultSpan(0, 0);
  ASSERT_TRUE(After.ok());
  EXPECT_EQ(After.value().Keep.get(), Baseline.value().Keep.get())
      << "a corrupt container displaced a good tenant's resident frame";
  EXPECT_EQ(After.value().Keep->Code.size(), P.Functions[0].Code.size());
}

// A corrupt length prefix must never turn into an allocation: every
// claimed frame size is validated against the real file size before any
// buffer is reserved (the reserve-bomb check).
TEST(FaultInjection, FileSourceRejectsReserveBombs) {
  const std::string Path = testing::TempDir() + "ccomp_bomb.ccpk";
  auto WriteAndOpen = [&](const std::vector<uint8_t> &Bytes) {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              static_cast<std::streamsize>(Bytes.size()));
    Out.close();
    return store::FileFrameSource::open(Path);
  };

  // A container whose one frame claims to be ~1 TiB.
  ByteWriter Bomb;
  Bomb.writeU32(0x4B504343); // CCPK
  Bomb.writeStr("flate");
  Bomb.writeVarU(2);                  // manifest + 1 function frame
  Bomb.writeVarU(uint64_t(1) << 40);  // manifest "length"
  Bomb.writeU8(0);
  Result<std::unique_ptr<store::FileFrameSource>> R =
      WriteAndOpen(Bomb.bytes());
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().message().find("overruns"), std::string::npos)
      << R.error().message();

  // A frame count far beyond what the file could hold.
  ByteWriter Count;
  Count.writeU32(0x4B504343);
  Count.writeStr("flate");
  Count.writeVarU(uint64_t(1) << 50);
  Result<std::unique_ptr<store::FileFrameSource>> R2 =
      WriteAndOpen(Count.bytes());
  ASSERT_FALSE(R2.ok());
  EXPECT_NE(R2.error().message().find("frame count"), std::string::npos)
      << R2.error().message();
}

//===----------------------------------------------------------------------===//
// Execution-trace sidecar (CCPF) + profiled layout table
//===----------------------------------------------------------------------===//

// The profile sidecar decoder under the same seeded sweep as every
// other delivery format: corrupt CCPF bytes either deserialize cleanly
// or fail typed, never crash or over-allocate (asan preset checks the
// latter).
TEST(FaultInjection, ProfileSidecarSurvivesCorruption) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  store::TraceRunResult R = store::recordTrace(P);
  ASSERT_TRUE(R.Run.Ok) << R.Run.Trap;
  ASSERT_FALSE(R.Trace.Events.empty());
  std::vector<uint8_t> Bytes = R.Trace.serialize();

  Result<pipeline::ExecutionTrace> Clean =
      pipeline::ExecutionTrace::tryDeserialize(Bytes);
  ASSERT_TRUE(Clean.ok()) << Clean.error().message();
  ASSERT_TRUE(Clean.value().Events == R.Trace.Events);

  sweep(Bytes, 7100, [](const std::vector<uint8_t> &Bad) {
    return pipeline::ExecutionTrace::tryDeserialize(Bad).ok();
  }, "profile sidecar");
}

// Hand-built sidecar attacks: each malformation the decoder guards
// against must surface as a typed, recoverable error naming the
// problem.
TEST(FaultInjection, ProfileSidecarRejectsCraftedAttacks) {
  auto ExpectFails = [](const std::vector<uint8_t> &Bytes,
                        const char *Needle) {
    Result<pipeline::ExecutionTrace> R =
        pipeline::ExecutionTrace::tryDeserialize(Bytes);
    ASSERT_FALSE(R.ok()) << Needle;
    EXPECT_NE(R.error().message().find(Needle), std::string::npos)
        << R.error().message();
  };
  auto Header = [](uint8_t Version, uint8_t Flags) {
    ByteWriter W;
    W.writeU32(0x46504343); // CCPF
    W.writeU8(Version);
    W.writeU8(Flags);
    return W;
  };

  // Wrong magic.
  {
    ByteWriter W;
    W.writeU32(0x4B504343); // CCPK, not CCPF
    ExpectFails(W.take(), "bad magic");
  }
  // Unknown version and unknown flag bits.
  {
    ByteWriter W = Header(9, 0);
    ExpectFails(W.take(), "unsupported version");
  }
  {
    ByteWriter W = Header(1, 0x80);
    ExpectFails(W.take(), "unknown flag bits");
  }
  // Truncated trace: the header promises events the bytes don't hold
  // (a count small enough to slip past the reserve-bomb check).
  {
    ByteWriter W = Header(1, 0);
    W.writeVarU(4); // FuncCount
    W.writeVarU(3); // EventCount
    W.writeVarU(1); // event 0: Fn...
    W.writeVarU(0); // ...Idx — then the buffer ends two events short.
    ExpectFails(W.take(), "past end");
  }
  // Reserve bomb: an event count no buffer this size could encode.
  {
    ByteWriter W = Header(1, 0);
    W.writeVarU(4);
    W.writeVarU(uint64_t(1) << 50);
    ExpectFails(W.take(), "inflated event count");
  }
  // Event function out of range.
  {
    ByteWriter W = Header(1, 0);
    W.writeVarU(4); // FuncCount
    W.writeVarU(1);
    W.writeVarU(7); // Fn 7 >= FuncCount 4
    W.writeVarU(0);
    ExpectFails(W.take(), "function out of range");
  }
  // Block index out of range (beyond any real function body).
  {
    ByteWriter W = Header(1, 0);
    W.writeVarU(4);
    W.writeVarU(1);
    W.writeVarU(0);
    W.writeVarU(uint64_t(1) << 30);
    ExpectFails(W.take(), "block index out of range");
  }
  // Trailing bytes after the last event.
  {
    ByteWriter W = Header(1, 0);
    W.writeVarU(4);
    W.writeVarU(1);
    W.writeVarU(0);
    W.writeVarU(0);
    W.writeU8(0xEE);
    ExpectFails(W.take(), "trailing bytes");
  }
}

// The layout table a *profiled* build writes into the manifest gets the
// same corruption sweep as the source-order one: a trace-guided page
// table is just data, and a corrupted copy must fail typed at load or
// at fault, never crash.
TEST(FaultInjection, ProfiledLayoutTableSurvivesCorruption) {
  vm::VMProgram P = buildVM(syntheticSource(8));
  store::TraceRunResult R = store::recordTrace(P);
  ASSERT_TRUE(R.Run.Ok) << R.Run.Trap;

  std::string Err;
  store::StoreOptions SO;
  SO.PageTargetBytes = 64;
  SO.Profile = &R.Trace;
  std::unique_ptr<store::CodeStore> Built =
      store::CodeStore::build(P, "flate", SO, Err);
  ASSERT_NE(Built, nullptr) << Err;
  std::vector<uint8_t> Img = Built->save();

  auto FaultAllSpans = [](Result<std::unique_ptr<store::CodeStore>> L) {
    if (!L.ok())
      return false;
    std::unique_ptr<store::CodeStore> S = L.take();
    for (uint32_t I = 0; I != S->functionCount(); ++I) {
      if (!S->fault(I).ok())
        return false;
      if (!S->faultSpan(I, 0).ok())
        return false;
    }
    return true;
  };
  ASSERT_TRUE(
      FaultAllSpans(store::CodeStore::tryLoad(Img, store::StoreOptions())))
      << "the uncorrupted profiled image must serve";

  sweep(Img, 7200, [&](const std::vector<uint8_t> &Bad) {
    return FaultAllSpans(
        store::CodeStore::tryLoad(Bad, store::StoreOptions()));
  }, "profiled layout table");
}

//===----------------------------------------------------------------------===//
// Harness self-checks
//===----------------------------------------------------------------------===//

TEST(FaultInjection, FaultsAreDeterministic) {
  std::vector<uint8_t> Buf(256);
  for (size_t I = 0; I != Buf.size(); ++I)
    Buf[I] = static_cast<uint8_t>(I);
  FaultInjector A(7), Bi(7);
  for (int I = 0; I != 64; ++I) {
    Fault FA = A.plan(Buf.size());
    Fault FB = Bi.plan(Buf.size());
    EXPECT_EQ(FA.str(), FB.str());
    EXPECT_EQ(applyFault(Buf, FA), applyFault(Buf, FB));
  }
}

TEST(FaultInjection, EveryFaultKindOccursAndMutates) {
  std::vector<uint8_t> Buf(512, 0xAB);
  FaultInjector FI(11);
  unsigned SeenMutation[6] = {};
  for (int I = 0; I != 120; ++I) {
    Fault F = FI.plan(Buf.size());
    if (applyFault(Buf, F) != Buf)
      ++SeenMutation[static_cast<unsigned>(F.Kind)];
  }
  for (unsigned K = 0; K != 6; ++K)
    EXPECT_GT(SeenMutation[K], 0u)
        << "kind " << faultKindName(static_cast<FaultKind>(K))
        << " never changed the buffer";
}
