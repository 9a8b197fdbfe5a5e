//===- tests/test_codec.cpp - Codec registry and pipeline driver ---------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// The codec seam's core promise: every registered codec round-trips its
// canonical payload byte-identically through compress -> tryDecompress,
// for every corpus program; and the parallel pipeline driver's output is
// byte-identical to a serial run at any job count.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "corpus/Corpus.h"
#include "pipeline/Codec.h"
#include "pipeline/Payload.h"
#include "pipeline/Pipeline.h"

#include "gtest/gtest.h"

#include <atomic>
#include <thread>

using namespace ccomp;
using namespace ccomp::pipeline;
using namespace ccomp::test;

namespace {

struct Compiled {
  std::string Name;
  std::unique_ptr<ir::Module> M;
  vm::VMProgram P;
};

// Compiles every corpus program once for the whole suite.
const std::vector<Compiled> &corpusPrograms() {
  static std::vector<Compiled> *Programs = [] {
    auto *V = new std::vector<Compiled>();
    for (const corpus::Program &CP : corpus::programs()) {
      Compiled C;
      C.Name = CP.Name;
      C.M = compileC(CP.Source);
      C.P = buildVM(CP.Source);
      V->push_back(std::move(C));
    }
    return V;
  }();
  return *Programs;
}

TEST(Codec, RegistryHasBuiltins) {
  const Registry &R = Registry::instance();
  EXPECT_NE(R.find("flate"), nullptr);
  EXPECT_NE(R.find("vm-compact"), nullptr);
  EXPECT_NE(R.find("brisc"), nullptr);
  EXPECT_NE(R.find("wire"), nullptr);
  EXPECT_NE(R.find("brisc-ctx"), nullptr);
  EXPECT_NE(R.find("bwt-dict"), nullptr);
  EXPECT_EQ(R.find("no-such-codec"), nullptr);
  for (const auto &C : R.all()) {
    EXPECT_STRNE(C->name(), "");
    EXPECT_STRNE(C->description(), "");
  }
}

// The core contract: every codec round-trips every corpus program's
// canonical payloads byte-identically.
TEST(Codec, EveryCodecRoundTripsEveryCorpusProgram) {
  for (const Compiled &C : corpusPrograms()) {
    for (const auto &Codec : Registry::instance().all()) {
      std::vector<std::vector<uint8_t>> Payloads =
          makePayloads(*Codec, C.P, C.M.get());
      ASSERT_FALSE(Payloads.empty()) << C.Name << " " << Codec->name();
      for (size_t I = 0; I != Payloads.size(); ++I) {
        std::vector<uint8_t> Frame = Codec->compress(Payloads[I]);
        Result<std::vector<uint8_t>> Back = Codec->tryDecompress(Frame);
        ASSERT_TRUE(Back.ok())
            << C.Name << " " << Codec->name() << " item " << I << ": "
            << Back.error().message();
        EXPECT_EQ(Back.value(), Payloads[I])
            << C.Name << " " << Codec->name() << " item " << I;
      }
    }
  }
}

TEST(Codec, StatsCountCallsAndBytes) {
  const Codec *Flate = Registry::instance().find("flate");
  ASSERT_NE(Flate, nullptr);
  Flate->resetStats();
  std::vector<uint8_t> Payload(2000, 7);
  std::vector<uint8_t> Frame = Flate->compress(Payload);
  ASSERT_TRUE(Flate->tryDecompress(Frame).ok());
  EXPECT_FALSE(Flate->tryDecompress(std::vector<uint8_t>{1, 2, 3}).ok());
  CodecStats S = Flate->snapshot();
  EXPECT_EQ(S.CompressCalls, 1u);
  EXPECT_EQ(S.BytesIn, Payload.size());
  EXPECT_EQ(S.BytesOut, Frame.size());
  EXPECT_EQ(S.DecompressCalls, 2u);
  EXPECT_EQ(S.DecodeErrors, 1u);
  Flate->resetStats();
  EXPECT_EQ(Flate->snapshot().CompressCalls, 0u);
}

// snapshot() taken while other threads are mid-update must never show a
// torn view: the call counters are published last (release) and read
// first (acquire), so any snapshot that observes k CompressCalls must
// also observe at least the payload bytes those k calls recorded. Eight
// writer threads hammer a fixed-size payload while readers snapshot
// concurrently; every snapshot's byte delta is checked against its call
// delta. Deltas are taken against a pre-hammer baseline because other
// tests in this binary may already have bumped the global counters.
TEST(Codec, SnapshotIsCoherentUnderConcurrentUpdates) {
  const Codec *Flate = Registry::instance().find("flate");
  ASSERT_NE(Flate, nullptr);
  const std::vector<uint8_t> Payload(512, 42);
  const std::vector<uint8_t> Frame = Flate->compress(Payload);
  const CodecStats Base = Flate->snapshot();

  constexpr int Writers = 4;
  constexpr int Readers = 4;
  constexpr int Rounds = 400;
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Violations{0};

  std::vector<std::thread> Threads;
  for (int W = 0; W != Writers; ++W)
    Threads.emplace_back([&] {
      for (int I = 0; I != Rounds; ++I) {
        Flate->compress(Payload);
        if (!Flate->tryDecompress(Frame).ok())
          Violations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (int R = 0; R != Readers; ++R)
    Threads.emplace_back([&] {
      while (!Stop.load(std::memory_order_acquire)) {
        CodecStats S = Flate->snapshot();
        uint64_t Calls = S.CompressCalls - Base.CompressCalls;
        uint64_t Bytes = S.BytesIn - Base.BytesIn;
        if (Bytes < Calls * Payload.size())
          Violations.fetch_add(1, std::memory_order_relaxed);
        uint64_t Decodes = S.DecompressCalls - Base.DecompressCalls;
        if (Decodes > uint64_t(Writers) * Rounds)
          Violations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (int W = 0; W != Writers; ++W)
    Threads[W].join();
  Stop.store(true, std::memory_order_release);
  for (size_t I = Writers; I != Threads.size(); ++I)
    Threads[I].join();

  EXPECT_EQ(Violations.load(), 0u);
  CodecStats Final = Flate->snapshot();
  EXPECT_EQ(Final.CompressCalls - Base.CompressCalls,
            uint64_t(Writers) * Rounds);
  EXPECT_EQ(Final.BytesIn - Base.BytesIn,
            uint64_t(Writers) * Rounds * Payload.size());
  EXPECT_EQ(Final.DecompressCalls - Base.DecompressCalls,
            uint64_t(Writers) * Rounds);
}

TEST(Codec, CorruptFramesYieldTypedErrors) {
  const Compiled &C = corpusPrograms().front();
  for (const auto &Codec : Registry::instance().all()) {
    std::vector<std::vector<uint8_t>> Payloads =
        makePayloads(*Codec, C.P, C.M.get());
    std::vector<uint8_t> Frame = Codec->compress(Payloads[0]);
    // Truncation must fail recoverably — except for vm-compact, whose
    // headerless self-delimiting stream legally decodes a prefix cut at
    // an instruction boundary as a shorter function.
    for (size_t Keep : {size_t(0), size_t(1), Frame.size() / 2}) {
      std::vector<uint8_t> Cut(Frame.begin(), Frame.begin() + Keep);
      Result<std::vector<uint8_t>> R = Codec->tryDecompress(Cut);
      if (std::string(Codec->name()) != "vm-compact")
        EXPECT_FALSE(R.ok()) << Codec->name() << " keep=" << Keep;
    }
    std::vector<uint8_t> Bad = Frame;
    Bad[0] ^= 0xFF;
    Result<std::vector<uint8_t>> R = Codec->tryDecompress(Bad);
    if (!R.ok())
      EXPECT_FALSE(R.error().message().empty()) << Codec->name();
  }
}

TEST(Chain, ParseAcceptsKnownChainsRejectsBadOnes) {
  std::string Error;
  EXPECT_EQ(parseChain("brisc", Error).size(), 1u);
  EXPECT_EQ(parseChain("brisc+flate", Error).size(), 2u);
  EXPECT_EQ(parseChain("vm-compact+flate", Error).size(), 2u);

  EXPECT_TRUE(parseChain("", Error).empty());
  EXPECT_FALSE(Error.empty());
  EXPECT_TRUE(parseChain("nope", Error).empty());
  EXPECT_NE(Error.find("nope"), std::string::npos);
  // Only raw-byte codecs may follow another codec.
  EXPECT_TRUE(parseChain("flate+brisc", Error).empty());
  EXPECT_TRUE(parseChain("brisc+", Error).empty());
}

TEST(Chain, ChainedCompressInverts) {
  const Compiled &C = corpusPrograms().front();
  std::string Error;
  std::vector<const Codec *> Chain = parseChain("brisc+flate", Error);
  ASSERT_EQ(Chain.size(), 2u) << Error;
  std::vector<std::vector<uint8_t>> Payloads =
      makePayloads(*Chain.front(), C.P, C.M.get());
  std::vector<std::vector<uint8_t>> Frames = compressAll(Chain, Payloads, 1);
  Result<std::vector<std::vector<uint8_t>>> Back =
      tryDecompressAll(Chain, Frames, 1);
  ASSERT_TRUE(Back.ok()) << Back.error().message();
  EXPECT_EQ(Back.value(), Payloads);
}

// The pipeline driver's determinism promise: fanning jobs across 2 or 4
// worker threads produces bytes identical to the serial run, for every
// registered codec on its own (a codec registered later is covered
// without touching this test) and for two chains through flate.
TEST(Pipeline, ParallelOutputMatchesSerial) {
  const std::string Src = syntheticSource(96);
  vm::VMProgram P = buildVM(Src);
  std::unique_ptr<ir::Module> M = compileC(Src);
  ASSERT_NE(M, nullptr);
  std::vector<std::string> Specs;
  for (const auto &C : Registry::instance().all())
    Specs.push_back(C->name());
  Specs.push_back("vm-compact+flate");
  Specs.push_back("brisc-ctx+flate");

  std::string Error;
  for (const std::string &Spec : Specs) {
    std::vector<const Codec *> Chain = parseChain(Spec, Error);
    ASSERT_FALSE(Chain.empty()) << Error;
    std::vector<std::vector<uint8_t>> Payloads =
        makePayloads(*Chain.front(), P, M.get());
    // Module payloads (wire) are one item; everything else is one per
    // function, enough to spread across the workers.
    if (Chain.front()->payloadKind() == PayloadKind::Module)
      ASSERT_EQ(Payloads.size(), 1u) << Spec;
    else
      ASSERT_GT(Payloads.size(), 8u) << Spec;

    std::vector<std::vector<uint8_t>> Serial = compressAll(Chain, Payloads, 1);
    Result<std::vector<std::vector<uint8_t>>> SerialBack =
        tryDecompressAll(Chain, Serial, 1);
    ASSERT_TRUE(SerialBack.ok()) << Spec;
    EXPECT_EQ(SerialBack.value(), Payloads) << Spec;
    for (unsigned Jobs : {2u, 4u}) {
      EXPECT_EQ(compressAll(Chain, Payloads, Jobs), Serial)
          << Spec << " at " << Jobs << " jobs";
      Result<std::vector<std::vector<uint8_t>>> ParallelBack =
          tryDecompressAll(Chain, Serial, Jobs);
      ASSERT_TRUE(ParallelBack.ok()) << Spec << " at " << Jobs << " jobs";
      EXPECT_EQ(ParallelBack.value(), SerialBack.value())
          << Spec << " at " << Jobs << " jobs";
    }
  }
}

TEST(Pipeline, ErrorReportingIsDeterministic) {
  vm::VMProgram P = buildVM(syntheticSource(12));
  std::string Error;
  std::vector<const Codec *> Chain = parseChain("flate", Error);
  ASSERT_FALSE(Chain.empty());
  std::vector<std::vector<uint8_t>> Payloads =
      makePayloads(*Chain.front(), P, nullptr);
  std::vector<std::vector<uint8_t>> Frames = compressAll(Chain, Payloads, 1);
  // Corrupt two frames; the lowest-index failure must be the one
  // reported regardless of job count.
  Frames[3] = {0xDE, 0xAD};
  Frames[7] = {0xBE, 0xEF};
  Result<std::vector<std::vector<uint8_t>>> Serial =
      tryDecompressAll(Chain, Frames, 1);
  Result<std::vector<std::vector<uint8_t>>> Parallel =
      tryDecompressAll(Chain, Frames, 4);
  ASSERT_FALSE(Serial.ok());
  ASSERT_FALSE(Parallel.ok());
  EXPECT_EQ(Parallel.error().message(), Serial.error().message());
}

TEST(Pipeline, ContainerRoundTripsAndRejectsCorruption) {
  vm::VMProgram P = buildVM(syntheticSource(6));
  std::string Error;
  std::vector<const Codec *> Chain = parseChain("brisc+flate", Error);
  ASSERT_FALSE(Chain.empty());
  std::vector<std::vector<uint8_t>> Payloads =
      makePayloads(*Chain.front(), P, nullptr);
  std::vector<std::vector<uint8_t>> Frames = compressAll(Chain, Payloads, 2);

  std::vector<uint8_t> Packed = packContainer("brisc+flate", Frames);
  Result<Container> C = tryUnpackContainer(Packed);
  ASSERT_TRUE(C.ok()) << C.error().message();
  EXPECT_EQ(C.value().ChainSpec, "brisc+flate");
  EXPECT_EQ(C.value().Frames, Frames);

  for (size_t Keep : {size_t(0), size_t(3), Packed.size() - 1}) {
    std::vector<uint8_t> Cut(Packed.begin(), Packed.begin() + Keep);
    EXPECT_FALSE(tryUnpackContainer(Cut).ok()) << "keep=" << Keep;
  }
  std::vector<uint8_t> Bad = Packed;
  Bad[0] ^= 0xFF;
  EXPECT_FALSE(tryUnpackContainer(Bad).ok());
}

// The function image rebuilds label tables from resolved branch targets;
// a function whose labels are renumbered by a compressor still
// round-trips byte-exactly.
TEST(Payload, FuncImageRoundTrip) {
  vm::VMProgram P = buildVM(syntheticSource(10));
  for (const vm::VMFunction &F : P.Functions) {
    std::vector<uint8_t> Img = encodeFuncImage(F);
    Result<vm::VMFunction> Back = tryDecodeFuncImage(Img);
    ASSERT_TRUE(Back.ok()) << F.Name << ": " << Back.error().message();
    EXPECT_EQ(encodeFuncImage(Back.value()), Img) << F.Name;
    EXPECT_EQ(Back.value().Code.size(), F.Code.size()) << F.Name;
    EXPECT_EQ(Back.value().Name, F.Name);
    EXPECT_EQ(Back.value().FrameSize, F.FrameSize) << F.Name;
  }
  EXPECT_FALSE(tryDecodeFuncImage(std::vector<uint8_t>{1, 2, 3}).ok());
}

/// The page route every codec inherits: payload, then
/// tryDecodePagePayload.
Result<std::vector<vm::Instr>> viaPayload(const Codec &C, ByteSpan Frame,
                                          const std::vector<uint32_t> &L) {
  Result<std::vector<uint8_t>> Payload = C.tryDecompress(Frame);
  if (!Payload.ok())
    return Payload.error();
  return tryDecodePagePayload(C.payloadKind(), Payload.value(), L);
}

// BRISC decodes a page frame straight to instructions; the result must
// be the one the function-image round trip gives, for every page of the
// corpus suite and of the icc class at every page size the store uses.
TEST(Payload, BriscPageRouteMatchesImageRoute) {
  const Codec &Brisc = *Registry::instance().find("brisc");
  std::vector<const vm::VMProgram *> Programs;
  for (const Compiled &C : corpusPrograms())
    Programs.push_back(&C.P);
  vm::VMProgram Icc = buildVM(corpus::sizeClassSource("icc"));
  Programs.push_back(&Icc);
  size_t Pages = 0;
  for (size_t TargetBytes : {0u, 64u, 256u, 4096u})
    for (const vm::VMProgram *P : Programs)
      for (const vm::VMFunction &F : P->Functions)
        for (const PageChunk &C : splitFunctionPages(F, TargetBytes)) {
          std::vector<uint32_t> Labels;
          std::vector<uint8_t> Frame = Brisc.compress(
              encodePagePayload(PayloadKind::FuncImage, C.Code, &Labels));
          Result<std::vector<vm::Instr>> Direct =
              Brisc.tryDecodePage(Frame, Labels);
          Result<std::vector<vm::Instr>> Image =
              viaPayload(Brisc, Frame, Labels);
          ASSERT_TRUE(Direct.ok()) << F.Name << ": " << Direct.error().message();
          ASSERT_TRUE(Image.ok()) << F.Name << ": " << Image.error().message();
          ASSERT_EQ(Direct.value(), Image.value())
              << F.Name << " page at " << C.FirstInstr;
          ASSERT_EQ(Direct.value(), C.Code) << F.Name;
          ++Pages;
        }
  EXPECT_GT(Pages, 4000u);
}

TEST(Payload, PageDecodeCountsLikeDecompress) {
  const Codec &Brisc = *Registry::instance().find("brisc");
  vm::VMProgram P = buildVM(syntheticSource(3));
  std::vector<uint32_t> Labels;
  std::vector<uint8_t> Frame = Brisc.compress(encodePagePayload(
      PayloadKind::FuncImage, P.Functions[0].Code, &Labels));
  CodecStats Before = Brisc.snapshot();
  ASSERT_TRUE(Brisc.tryDecodePage(Frame, Labels).ok());
  EXPECT_FALSE(Brisc.tryDecodePage(std::vector<uint8_t>{1, 2}, Labels).ok());
  CodecStats After = Brisc.snapshot();
  EXPECT_EQ(After.DecompressCalls - Before.DecompressCalls, 2u);
  EXPECT_EQ(After.DecodeErrors - Before.DecodeErrors, 1u);
  EXPECT_GT(After.DecompressNanos, Before.DecompressNanos);
}

} // namespace
