//===- bench/bench_micro.cpp - Component microbenchmarks -----------------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// google-benchmark throughput measurements for the building blocks:
// flate compress/decompress, Huffman and MTF coding, a code store's
// page-fault decode per stage, the three execution engines' dispatch
// rates, BRISC compression, and the JIT's code-production rate (the
// 2.5 MB/s headline, on modern hardware).
//
//===----------------------------------------------------------------------===//

#include "benchmark/benchmark.h"

#include "brisc/Brisc.h"
#include "brisc/Interp.h"
#include "corpus/Corpus.h"
#include "flate/Flate.h"
#include "minic/Compile.h"
#include "codegen/Codegen.h"
#include "native/Threaded.h"
#include "pipeline/Codec.h"
#include "pipeline/Payload.h"
#include "support/Huffman.h"
#include "support/MTF.h"
#include "support/PRNG.h"
#include "vm/Encode.h"
#include "wire/Wire.h"

#include <chrono>

using namespace ccomp;

namespace {

std::vector<uint8_t> codeLikeBytes(size_t N) {
  PRNG Rng(7);
  std::vector<uint8_t> Out;
  Out.reserve(N);
  while (Out.size() < N) {
    Out.push_back(static_cast<uint8_t>(Rng.below(40)));
    Out.push_back(static_cast<uint8_t>(Rng.below(256)));
    Out.push_back(static_cast<uint8_t>(4 * Rng.below(32)));
    Out.push_back(0);
  }
  return Out;
}

vm::VMProgram &wepProgram() {
  static vm::VMProgram P = [] {
    minic::CompileResult CR =
        minic::compile(corpus::sizeClassSource("wep"));
    codegen::Result CG = codegen::generate(*CR.M);
    return std::move(CG.P);
  }();
  return P;
}

const corpus::Program &benchProgram() { return *corpus::find("qsort"); }

const pipeline::Codec &codec(const char *Name) {
  return *pipeline::Registry::instance().find(Name);
}

/// One page frame of a brisc+flate code store and the page's label
/// table (what CodeStore::decodeFrame holds when it faults the page).
struct PageFrame {
  std::vector<uint8_t> Bytes;
  std::vector<uint32_t> Labels;
};

/// The icc class cut into 4 KiB pages and encoded brisc, then flate, the
/// way CodeStore::build encodes them (greedy page split, no profile).
const std::vector<PageFrame> &iccPageFrames() {
  static const std::vector<PageFrame> Frames = [] {
    minic::CompileResult CR = minic::compile(corpus::sizeClassSource("icc"));
    codegen::Result CG = codegen::generate(*CR.M);
    std::vector<PageFrame> Out;
    for (const vm::VMFunction &F : CG.P.Functions)
      for (const pipeline::PageChunk &C :
           pipeline::splitFunctionPages(F, 4096)) {
        PageFrame PF;
        std::vector<uint8_t> Payload = pipeline::encodePagePayload(
            pipeline::PayloadKind::FuncImage, C.Code, &PF.Labels);
        PF.Bytes = codec("flate").compress(codec("brisc").compress(Payload));
        Out.push_back(std::move(PF));
      }
    return Out;
  }();
  return Frames;
}

} // namespace

/// A page fault's decode, frame by frame over the icc-class brisc+flate
/// 4 KiB frames: flate to the BRISC image, then BRISC straight to the
/// page's instructions. The counters split the per-frame time by stage;
/// small frames are where per-block table set-up and per-frame
/// allocation show, which one large buffer hides.
static void BM_PageFrameDecode(benchmark::State &State) {
  using Clock = std::chrono::steady_clock;
  const std::vector<PageFrame> &Frames = iccPageFrames();
  const pipeline::Codec &Flate = codec("flate"), &Brisc = codec("brisc");
  Clock::duration FlateT{}, BriscT{};
  for (auto _ : State)
    for (const PageFrame &F : Frames) {
      Clock::time_point A = Clock::now();
      Result<std::vector<uint8_t>> Mid = Flate.tryDecompress(F.Bytes);
      Clock::time_point B = Clock::now();
      if (!Mid.ok()) {
        State.SkipWithError(Mid.error().message().c_str());
        return;
      }
      Result<std::vector<vm::Instr>> Code =
          Brisc.tryDecodePage(Mid.value(), F.Labels);
      Clock::time_point C = Clock::now();
      if (!Code.ok()) {
        State.SkipWithError(Code.error().message().c_str());
        return;
      }
      benchmark::DoNotOptimize(Code.value().data());
      FlateT += B - A;
      BriscT += C - B;
    }
  double N = double(State.iterations()) * double(Frames.size());
  auto PerFrameUs = [N](Clock::duration D) {
    return std::chrono::duration<double, std::micro>(D).count() / N;
  };
  State.counters["frames"] = double(Frames.size());
  State.counters["flate_us"] = PerFrameUs(FlateT);
  State.counters["brisc_us"] = PerFrameUs(BriscT);
  State.counters["decode_us"] = PerFrameUs(FlateT + BriscT);
  State.SetItemsProcessed(int64_t(N));
}
BENCHMARK(BM_PageFrameDecode)->Unit(benchmark::kMillisecond);

static void BM_FlateCompress(benchmark::State &State) {
  std::vector<uint8_t> In = codeLikeBytes(1 << 18);
  for (auto _ : State)
    benchmark::DoNotOptimize(flate::compress(In));
  State.SetBytesProcessed(int64_t(State.iterations()) * In.size());
}
BENCHMARK(BM_FlateCompress);

static void BM_FlateDecompress(benchmark::State &State) {
  std::vector<uint8_t> In = codeLikeBytes(1 << 18);
  std::vector<uint8_t> Z = flate::compress(In);
  for (auto _ : State)
    benchmark::DoNotOptimize(flate::decompress(Z));
  State.SetBytesProcessed(int64_t(State.iterations()) * In.size());
}
BENCHMARK(BM_FlateDecompress);

static void BM_HuffmanRoundTrip(benchmark::State &State) {
  PRNG Rng(3);
  std::vector<uint64_t> Freq(256, 0);
  std::vector<unsigned> Syms;
  for (int I = 0; I != 65536; ++I) {
    unsigned S = static_cast<unsigned>(Rng.below(256));
    S = S * S / 256;
    Syms.push_back(S);
    ++Freq[S];
  }
  for (auto _ : State) {
    HuffmanCode Code(buildHuffmanLengths(Freq));
    BitWriter W;
    for (unsigned S : Syms)
      Code.encode(W, S);
    std::vector<uint8_t> B = W.finish();
    benchmark::DoNotOptimize(B);
    BitReader R(B);
    unsigned Sum = 0;
    for (size_t I = 0; I != Syms.size(); ++I)
      Sum += Code.decode(R);
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * Syms.size());
}
BENCHMARK(BM_HuffmanRoundTrip);

static void BM_MTFEncode(benchmark::State &State) {
  PRNG Rng(9);
  std::vector<uint64_t> Vals;
  for (int I = 0; I != 65536; ++I)
    Vals.push_back(Rng.below(64));
  for (auto _ : State) {
    MTFEncoder Enc;
    uint64_t Sum = 0;
    for (uint64_t V : Vals)
      Sum += Enc.encode(V).Index;
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * Vals.size());
}
BENCHMARK(BM_MTFEncode);

static void BM_MinicCompile(benchmark::State &State) {
  std::string Src = corpus::sizeClassSource("wep");
  for (auto _ : State) {
    minic::CompileResult R = minic::compile(Src);
    benchmark::DoNotOptimize(R.M);
  }
  State.SetBytesProcessed(int64_t(State.iterations()) * Src.size());
}
BENCHMARK(BM_MinicCompile);

static void BM_WireCompress(benchmark::State &State) {
  minic::CompileResult CR = minic::compile(corpus::sizeClassSource("wep"));
  for (auto _ : State)
    benchmark::DoNotOptimize(wire::compress(*CR.M));
}
BENCHMARK(BM_WireCompress);

static void BM_BriscCompress(benchmark::State &State) {
  vm::VMProgram &P = wepProgram();
  for (auto _ : State) {
    brisc::BriscProgram B = brisc::compress(P);
    benchmark::DoNotOptimize(B.Funcs.size());
  }
  State.SetBytesProcessed(int64_t(State.iterations()) *
                          vm::encodeProgram(P).size());
}
BENCHMARK(BM_BriscCompress);

static void BM_JitRate(benchmark::State &State) {
  // The paper's headline: BRISC -> native code at 2.5 MB/s on a 120MHz
  // Pentium. Bytes here are produced threaded code.
  vm::VMProgram &P = wepProgram();
  brisc::BriscProgram B = brisc::compress(P);
  size_t Out = native::generateFromBrisc(B).codeBytes();
  for (auto _ : State) {
    native::NProgram N = native::generateFromBrisc(B);
    benchmark::DoNotOptimize(N.Code.data());
  }
  State.SetBytesProcessed(int64_t(State.iterations()) * Out);
}
BENCHMARK(BM_JitRate);

static void BM_RunVMInterp(benchmark::State &State) {
  minic::CompileResult CR = minic::compile(benchProgram().Source);
  codegen::Result CG = codegen::generate(*CR.M);
  uint64_t Steps = 0;
  for (auto _ : State) {
    vm::RunResult R = vm::runProgram(CG.P);
    Steps = R.Steps;
    benchmark::DoNotOptimize(R.ExitCode);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * Steps);
}
BENCHMARK(BM_RunVMInterp);

static void BM_RunBriscInterp(benchmark::State &State) {
  minic::CompileResult CR = minic::compile(benchProgram().Source);
  codegen::Result CG = codegen::generate(*CR.M);
  brisc::BriscProgram B = brisc::compress(CG.P);
  uint64_t Steps = 0;
  for (auto _ : State) {
    vm::RunResult R = brisc::interpret(B);
    Steps = R.Steps;
    benchmark::DoNotOptimize(R.ExitCode);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * Steps);
}
BENCHMARK(BM_RunBriscInterp);

static void BM_RunThreaded(benchmark::State &State) {
  minic::CompileResult CR = minic::compile(benchProgram().Source);
  codegen::Result CG = codegen::generate(*CR.M);
  native::NProgram N = native::generate(CG.P);
  uint64_t Steps = 0;
  for (auto _ : State) {
    vm::RunResult R = native::run(N);
    Steps = R.Steps;
    benchmark::DoNotOptimize(R.ExitCode);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * Steps);
}
BENCHMARK(BM_RunThreaded);

BENCHMARK_MAIN();
