//===- examples/compressor_tool.cpp - Registry-driven compressor CLI -----------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// The command-line face of the codec registry and the store runtime.
// Every compression stack in the project (flate, vm-compact, brisc,
// wire, ...) is a registered Codec; this tool compiles a mini-C source,
// fans per-function payloads across a thread pool, and packs the frames
// into one self-describing container that `decompress` can invert
// without being told the chain. A `--store` image is the paper's
// delivery unit: `serve` puts it behind a TCP frame server, and `run`
// executes it out of a demand-paged CodeStore, from the file or from a
// server.
//
//   compressor_tool --list                      show registered codecs
//   compressor_tool compress   file.c out.ccpk  [--codec CHAIN] [--jobs N] [--stats]
//                                               [--store [--page-bytes N]
//                                                [--per-page --chains A,B]
//                                                [--profile FILE]]
//   compressor_tool decompress in.ccpk          [--jobs N] [--stats]
//   compressor_tool profile    file.c out.ccprof
//   compressor_tool serve      store.ccpk       [--port N]
//   compressor_tool run        store.ccpk | host:port
//
// CHAIN is '+'-separated, first codec first: "brisc", "brisc+flate",
// "wire", "vm-compact+flate", ... Codecs after the first must accept raw
// bytes (today that means flate).
//
//===----------------------------------------------------------------------===//

#include "codegen/Codegen.h"
#include "minic/Compile.h"
#include "net/FrameServer.h"
#include "net/SocketFrameSource.h"
#include "pipeline/Codec.h"
#include "pipeline/Payload.h"
#include "pipeline/Pipeline.h"
#include "pipeline/Profile.h"
#include "store/CodeStore.h"
#include "store/Resolver.h"
#include "store/Trace.h"
#include "support/Support.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace ccomp;
using namespace ccomp::pipeline;

namespace {

bool readFile(const char *Path, std::vector<uint8_t> &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string S = SS.str();
  Out.assign(S.begin(), S.end());
  return true;
}

bool writeFile(const char *Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  return static_cast<bool>(Out);
}

/// Prints "<source>: <reason>" for a typed load, fetch or decode error
/// and returns the tool's exit code for it.
int fail(const char *Source, const DecodeError &E) {
  std::fprintf(stderr, "%s: %s\n", Source, E.message().c_str());
  return 1;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: compressor_tool --list\n"
      "       compressor_tool compress <file.c> <out.ccpk>"
      " [--codec CHAIN] [--jobs N] [--store] [--page-bytes N]"
      " [--per-page --chains A,B,..] [--profile FILE] [--stats]\n"
      "       compressor_tool decompress <in.ccpk> [--jobs N] [--stats]\n"
      "       compressor_tool profile <file.c> <out.ccprof>\n"
      "       compressor_tool serve <store.ccpk> [--port N]\n"
      "       compressor_tool run <store.ccpk | host:port>\n"
      "CHAIN: '+'-separated codec names, e.g. brisc+flate (see --list)\n"
      "--store emits a CodeStore image (manifest at frame 0) that\n"
      "'run' executes and 'serve' serves\n"
      "--per-page (with --store) trial-encodes every frame through the\n"
      "--codec chain plus each comma-separated --chains candidate and\n"
      "keeps the smallest; a mixed outcome writes a per-frame chain table\n"
      "'profile' runs the program once, recording its block-level\n"
      "execution trace to a CCPF sidecar; compress --store --page-bytes N\n"
      "--profile FILE feeds it back so co-hot blocks share pages\n"
      "'serve' serves a store image's frames over TCP until stdin closes\n"
      "(--port 0, the default, picks a free port)\n"
      "'run' executes a store image, faulting each function in on first\n"
      "call, from the file or from a server; a SOURCE with ':' is\n"
      "host:port\n");
  return 2;
}

void listCodecs() {
  for (const auto &C : Registry::instance().all())
    std::printf("%-12s %s\n", C->name(), C->description());
}

void printStats(const std::vector<const Codec *> &Chain) {
  std::printf("%-12s %8s %12s %12s %7s %8s %9s\n", "codec", "calls", "in",
              "out", "ratio", "errors", "ms");
  for (const Codec *C : Chain) {
    // snapshot() re-reads until the counter set is mutually consistent;
    // never read the individual atomics piecemeal in output paths.
    CodecStats S = C->snapshot();
    double Ratio = S.BytesIn ? double(S.BytesOut) / double(S.BytesIn) : 0.0;
    double Ms = double(S.CompressNanos + S.DecompressNanos) / 1e6;
    std::printf("%-12s %8llu %12llu %12llu %7.3f %8llu %9.2f\n", C->name(),
                (unsigned long long)(S.CompressCalls + S.DecompressCalls),
                (unsigned long long)S.BytesIn, (unsigned long long)S.BytesOut,
                Ratio, (unsigned long long)S.DecodeErrors, Ms);
  }
}

size_t totalBytes(const std::vector<std::vector<uint8_t>> &Items) {
  size_t N = 0;
  for (const std::vector<uint8_t> &I : Items)
    N += I.size();
  return N;
}

struct Flags {
  std::string Chain = "brisc";
  unsigned Jobs = 1;
  bool Stats = false;
  bool Store = false;
  bool PerPage = false;
  size_t PageBytes = 0;
  std::vector<std::string> CandidateChains;
  std::string ProfilePath;
  uint16_t Port = 0;
  std::vector<const char *> Positional;
};

/// Checked port parsing for --port and host:port: garbage, overflow and
/// anything past 65535 fail with a typed message instead of wrapping.
bool parsePort(const char *What, const char *Text, uint64_t Min,
               uint16_t &Out) {
  uint64_t N = 0;
  if (!parseUnsigned(Text, Min, 65535, N)) {
    std::fprintf(stderr, "%s wants an integer in [%llu, 65535], got '%s'\n",
                 What, (unsigned long long)Min, Text);
    return false;
  }
  Out = static_cast<uint16_t>(N);
  return true;
}

bool parseFlags(int argc, char **argv, int First, Flags &F) {
  for (int I = First; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--codec") && I + 1 < argc) {
      F.Chain = argv[++I];
    } else if (!std::strcmp(argv[I], "--jobs") && I + 1 < argc) {
      // Checked parsing: "0", "-3", "4x", "" and overflow all fail here
      // with a typed message instead of atoi's silent zero.
      uint64_t N = 0;
      if (!parseUnsigned(argv[++I], 1, 1024, N)) {
        std::fprintf(stderr,
                     "--jobs wants an integer in [1, 1024], got '%s'\n",
                     argv[I]);
        return false;
      }
      F.Jobs = static_cast<unsigned>(N);
    } else if (!std::strcmp(argv[I], "--stats")) {
      F.Stats = true;
    } else if (!std::strcmp(argv[I], "--store")) {
      F.Store = true;
    } else if (!std::strcmp(argv[I], "--per-page")) {
      F.PerPage = true;
    } else if (!std::strcmp(argv[I], "--chains") && I + 1 < argc) {
      std::string List = argv[++I];
      for (size_t Pos = 0; Pos <= List.size();) {
        size_t Comma = List.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = List.size();
        std::string Spec = List.substr(Pos, Comma - Pos);
        if (Spec.empty()) {
          std::fprintf(stderr, "--chains holds an empty chain spec\n");
          return false;
        }
        F.CandidateChains.push_back(std::move(Spec));
        Pos = Comma + 1;
      }
    } else if (!std::strcmp(argv[I], "--page-bytes") && I + 1 < argc) {
      uint64_t N = 0;
      if (!parseUnsigned(argv[++I], 0, uint64_t(1) << 30, N)) {
        std::fprintf(stderr,
                     "--page-bytes wants an integer in [0, 2^30], got '%s'\n",
                     argv[I]);
        return false;
      }
      F.PageBytes = static_cast<size_t>(N);
    } else if (!std::strcmp(argv[I], "--profile") && I + 1 < argc) {
      F.ProfilePath = argv[++I];
    } else if (!std::strcmp(argv[I], "--port") && I + 1 < argc) {
      if (!parsePort("--port", argv[++I], 0, F.Port))
        return false;
    } else if (argv[I][0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", argv[I]);
      return false;
    } else {
      F.Positional.push_back(argv[I]);
    }
  }
  return true;
}

bool compileProgram(const char *Input, std::unique_ptr<ir::Module> &M,
                    codegen::Result &CG) {
  std::vector<uint8_t> SrcBytes;
  if (!readFile(Input, SrcBytes)) {
    std::fprintf(stderr, "cannot read %s\n", Input);
    return false;
  }
  std::string Src(SrcBytes.begin(), SrcBytes.end());
  minic::CompileResult CR = minic::compile(Src);
  if (!CR.ok()) {
    std::fprintf(stderr, "%s: %s\n", Input, CR.Error.c_str());
    return false;
  }
  CG = codegen::generate(*CR.M);
  if (!CG.ok()) {
    std::fprintf(stderr, "%s: %s\n", Input, CG.Error.c_str());
    return false;
  }
  M = std::move(CR.M);
  return true;
}

int doProfile(const Flags &F) {
  if (F.Positional.size() != 2)
    return usage();
  const char *Input = F.Positional[0], *Output = F.Positional[1];
  std::unique_ptr<ir::Module> M;
  codegen::Result CG;
  if (!compileProgram(Input, M, CG))
    return 1;
  store::TraceRunResult R = store::recordTrace(CG.P);
  if (!R.Run.Ok) {
    std::fprintf(stderr, "%s: profiling run trapped: %s\n", Input,
                 R.Run.Trap.c_str());
    return 1;
  }
  std::vector<uint8_t> Sidecar = R.Trace.serialize();
  if (!writeFile(Output, Sidecar)) {
    std::fprintf(stderr, "cannot write %s\n", Output);
    return 1;
  }
  std::printf("%s: %zu trace event(s) over %u function(s) in %llu steps "
              "-> %zu sidecar bytes%s\n",
              Output, R.Trace.Events.size(), R.Trace.FuncCount,
              (unsigned long long)R.Run.Steps, Sidecar.size(),
              R.Trace.Truncated ? " (truncated)" : "");
  return 0;
}

int doCompress(const Flags &F) {
  if (F.Positional.size() != 2)
    return usage();
  const char *Input = F.Positional[0], *Output = F.Positional[1];

  std::string Error;
  std::vector<const Codec *> Chain = parseChain(F.Chain, Error);
  if (Chain.empty()) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 1;
  }

  if (F.PerPage && !F.Store) {
    std::fprintf(stderr, "--per-page needs --store (per-frame chains live "
                         "in the store manifest)\n");
    return 2;
  }
  if (F.PerPage && F.CandidateChains.empty()) {
    std::fprintf(stderr, "--per-page needs --chains A,B,.. (candidate "
                         "chains beside --codec)\n");
    return 2;
  }
  if (!F.CandidateChains.empty() && !F.PerPage) {
    std::fprintf(stderr, "--chains does nothing without --per-page\n");
    return 2;
  }

  std::unique_ptr<ir::Module> M;
  codegen::Result CG;
  if (!compileProgram(Input, M, CG))
    return 1;

  if (F.Store) {
    // A servable image: the store packs the same codec frames but puts
    // its manifest at frame 0, which `run`, `serve` and every
    // FrameSource require.
    store::StoreOptions Opts;
    Opts.BuildJobs = F.Jobs;
    Opts.PageTargetBytes = F.PageBytes;
    if (F.PerPage)
      Opts.CandidateChains = F.CandidateChains;
    pipeline::ExecutionTrace Trace;
    if (!F.ProfilePath.empty()) {
      std::vector<uint8_t> Sidecar;
      if (!readFile(F.ProfilePath.c_str(), Sidecar)) {
        std::fprintf(stderr, "cannot read %s\n", F.ProfilePath.c_str());
        return 1;
      }
      Result<pipeline::ExecutionTrace> T =
          pipeline::ExecutionTrace::tryDeserialize(Sidecar);
      if (!T.ok())
        return fail(F.ProfilePath.c_str(), T.error());
      Trace = T.take();
      Opts.Profile = &Trace;
      if (!Opts.PageTargetBytes)
        std::fprintf(stderr,
                     "note: --profile shapes the page layout only with "
                     "--page-bytes; the trace still drives prefetch\n");
    }
    std::string Err;
    std::unique_ptr<store::CodeStore> S =
        store::CodeStore::build(CG.P, F.Chain, Opts, Err);
    if (!S) {
      std::fprintf(stderr, "%s: %s\n", Input, Err.c_str());
      return 1;
    }
    std::vector<uint8_t> Packed = S->save();
    if (!writeFile(Output, Packed)) {
      std::fprintf(stderr, "cannot write %s\n", Output);
      return 1;
    }
    std::printf("%s: store image, %u function(s), %u frame(s) + manifest -> "
                "%zu container bytes (chain %s, %u job(s)%s%s)\n",
                Output, S->functionCount(), S->frameCount(), Packed.size(),
                F.Chain.c_str(), F.Jobs,
                S->perPageChains() ? ", per-page chains"
                                   : (F.PerPage ? ", uniform selection" : ""),
                F.ProfilePath.empty() ? "" : ", profiled layout");
    if (F.Stats)
      printStats(Chain);
    return 0;
  }

  std::vector<std::vector<uint8_t>> Payloads =
      makePayloads(*Chain.front(), CG.P, M.get());
  std::vector<std::vector<uint8_t>> Frames =
      compressAll(Chain, Payloads, F.Jobs);
  std::vector<uint8_t> Packed = packContainer(F.Chain, Frames);
  if (!writeFile(Output, Packed)) {
    std::fprintf(stderr, "cannot write %s\n", Output);
    return 1;
  }
  std::printf("%s: %zu item(s), %zu payload bytes -> %zu container bytes "
              "(chain %s, %u job(s))\n",
              Output, Payloads.size(), totalBytes(Payloads), Packed.size(),
              F.Chain.c_str(), F.Jobs);
  if (F.Stats)
    printStats(Chain);
  return 0;
}

int decompressStoreImage(const char *Input, const std::vector<uint8_t> &Bytes,
                         const std::vector<const Codec *> &Chain,
                         const Flags &F) {
  Result<std::unique_ptr<store::CodeStore>> S =
      store::CodeStore::tryLoad(Bytes, store::StoreOptions());
  if (!S.ok())
    return fail(Input, S.error());
  store::CodeStore &St = *S.value();
  if (F.Jobs > 1) {
    // Warm through the pool; the fault loop below reports any error.
    std::vector<uint32_t> All(St.functionCount());
    for (uint32_t I = 0; I != St.functionCount(); ++I)
      All[I] = I;
    ThreadPool Pool(F.Jobs);
    St.prefetch(All, Pool);
    Pool.wait();
  }
  size_t DecodedInstrs = 0;
  for (uint32_t I = 0; I != St.functionCount(); ++I) {
    Result<std::shared_ptr<const vm::VMFunction>> R = St.fault(I);
    if (!R.ok()) {
      std::fprintf(stderr, "%s: function '%s': %s\n", Input,
                   St.functionName(I).c_str(), R.error().message().c_str());
      return 1;
    }
    DecodedInstrs += R.value()->Code.size();
  }
  std::printf("%s: store image, %u function(s), %u frame(s), %zu frame "
              "bytes -> %zu instruction(s) (chain %s%s, %u job(s))\n",
              Input, St.functionCount(), St.frameCount(), St.frameBytes(),
              DecodedInstrs, St.chainSpec().c_str(),
              St.perPageChains() ? ", per-page chains" : "", F.Jobs);
  if (F.Stats)
    printStats(Chain);
  return 0;
}

int doDecompress(const Flags &F) {
  if (F.Positional.size() != 1)
    return usage();
  const char *Input = F.Positional[0];

  std::vector<uint8_t> Bytes;
  if (!readFile(Input, Bytes)) {
    std::fprintf(stderr, "cannot read %s\n", Input);
    return 1;
  }
  Result<Container> C = tryUnpackContainer(Bytes);
  if (!C.ok())
    return fail(Input, C.error());
  std::string Error;
  std::vector<const Codec *> Chain = parseChain(C.value().ChainSpec, Error);
  if (Chain.empty()) {
    std::fprintf(stderr, "%s: %s\n", Input, Error.c_str());
    return 1;
  }
  // A store image (--store / CodeStore::save) carries its manifest at
  // frame 0. Only the store reads manifests, so load the image through
  // it and fault every function, each frame through its own chain.
  if (!C.value().Frames.empty() && store::isStoreManifest(C.value().Frames[0]))
    return decompressStoreImage(Input, Bytes, Chain, F);
  Result<std::vector<std::vector<uint8_t>>> Payloads =
      tryDecompressAll(Chain, C.value().Frames, F.Jobs);
  if (!Payloads.ok())
    return fail(Input, Payloads.error());
  std::printf("%s: %zu item(s), %zu frame bytes -> %zu payload bytes "
              "(chain %s, %u job(s))\n",
              Input, Payloads.value().size(),
              totalBytes(C.value().Frames), totalBytes(Payloads.value()),
              C.value().ChainSpec.c_str(), F.Jobs);
  if (F.Stats)
    printStats(Chain);
  return 0;
}

int doServe(const Flags &F) {
  if (F.Positional.size() != 1)
    return usage();
  const char *Input = F.Positional[0];
  Result<std::unique_ptr<store::FileFrameSource>> Src =
      store::FileFrameSource::open(Input);
  if (!Src.ok())
    return fail(Input, Src.error());
  std::printf("serving %u frames (%zu compressed bytes, chain %s)\n",
              Src.value()->functionFrameCount(), Src.value()->frameBytes(),
              Src.value()->chainSpec().c_str());
  net::ServerOptions Opts;
  Opts.Port = F.Port;
  Result<std::unique_ptr<net::FrameServer>> Srv =
      net::FrameServer::start(Src.take(), Opts);
  if (!Srv.ok())
    return fail(Input, Srv.error());
  net::FrameServer &S = *Srv.value();
  std::printf("listening on %s:%u (content hash %016llx)\n",
              S.address().c_str(), S.port(),
              (unsigned long long)S.contentHash());
  // Scripts read the port from this line while the server runs.
  std::fflush(stdout);

  // Serve until stdin reaches EOF (Ctrl-D, or the far end of a pipe).
  while (std::getchar() != EOF)
    ;

  net::ServerStats St = S.stats();
  std::printf("served %llu requests (%llu batches, %llu frames) across "
              "%llu connections; %llu fetch errors, %llu protocol errors\n",
              (unsigned long long)St.Requests, (unsigned long long)St.Batches,
              (unsigned long long)St.FramesServed,
              (unsigned long long)St.Accepted,
              (unsigned long long)St.FetchErrors,
              (unsigned long long)St.ProtocolErrors);
  S.stop();
  return 0;
}

int doRun(const Flags &F) {
  if (F.Positional.size() != 1)
    return usage();
  const char *Input = F.Positional[0];
  std::unique_ptr<store::FrameSource> Src;
  store::StoreOptions Opts;
  net::SocketFrameSource *Sock = nullptr; // Owned by the store once open.
  if (const char *Colon = std::strrchr(Input, ':')) {
    net::SocketOptions SO;
    SO.Host.assign(Input, Colon);
    if (SO.Host.empty()) {
      std::fprintf(stderr, "run wants host:port, got '%s'\n", Input);
      return 2;
    }
    if (!parsePort("port", Colon + 1, 1, SO.Port))
      return 2;
    Result<std::unique_ptr<net::SocketFrameSource>> S =
        net::SocketFrameSource::connect(SO);
    if (!S.ok())
      return fail(Input, S.error());
    Sock = S.value().get();
    Src = S.take();
    Opts.Retry.RealTime = true; // Real transport: back off on a real clock.
    Opts.Retry.DeadlineSeconds = 10.0;
  } else {
    Result<std::unique_ptr<store::FileFrameSource>> S =
        store::FileFrameSource::open(Input);
    if (!S.ok())
      return fail(Input, S.error());
    Src = S.take();
  }
  Result<std::unique_ptr<store::CodeStore>> Store =
      store::CodeStore::tryFromSource(std::move(Src), Opts);
  if (!Store.ok())
    return fail(Input, Store.error());

  vm::RunResult R = store::runFromStore(*Store.value());
  if (!R.Ok) {
    std::fprintf(stderr, "%s: run trapped: %s\n", Input, R.Trap.c_str());
    return 1;
  }
  std::fwrite(R.Output.data(), 1, R.Output.size(), stdout);
  if (!R.Output.empty() && R.Output.back() != '\n')
    std::putchar('\n');
  std::printf("exit %d after %llu steps\n", R.ExitCode,
              (unsigned long long)R.Steps);
  store::StoreStats SS = Store.value()->stats();
  std::printf("store: %llu faults, %llu decodes, %llu bytes fetched",
              (unsigned long long)SS.Misses, (unsigned long long)SS.Decodes,
              (unsigned long long)SS.FetchedBytes);
  if (Sock) {
    net::ClientStats CS = Sock->stats();
    std::printf("; client: %llu round trips, %llu dials, %llu bytes down",
                (unsigned long long)CS.RoundTrips,
                (unsigned long long)CS.Dials,
                (unsigned long long)CS.BytesReceived);
  }
  std::printf("\n");
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  if (!std::strcmp(argv[1], "--list")) {
    listCodecs();
    return 0;
  }
  Flags F;
  if (!parseFlags(argc, argv, 2, F))
    return 2;
  if (!std::strcmp(argv[1], "compress"))
    return doCompress(F);
  if (!std::strcmp(argv[1], "decompress"))
    return doDecompress(F);
  if (!std::strcmp(argv[1], "profile"))
    return doProfile(F);
  if (!std::strcmp(argv[1], "serve"))
    return doServe(F);
  if (!std::strcmp(argv[1], "run"))
    return doRun(F);
  return usage();
}
