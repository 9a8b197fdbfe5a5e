//===- perfbench/cpp/main.cpp - The repository benchmark's entry point ---===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   perfbench --workload <store-file-tight|tier-resident|net-sessions>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// Runs one workload for the given seconds and prints, as the last line of
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 they are the per-layer ones, and the spans are written
// to <dir>/spans-<workload>.tsv. Diagnostics go to standard error.
//
//===----------------------------------------------------------------------===//

#include "Probe.h"
#include "Workloads.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string &Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir>\n",
               Why.c_str());
  std::exit(2);
}

uint64_t parseUnsigned(const std::string &Flag, const char *Text,
                       uint64_t Max) {
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (errno || End == Text || *End || Text[0] == '-' || V > Max)
    usage("bad value for " + Flag + ": " + Text);
  return V;
}

/// The container of one (workload, seed) must be the same bytes in every
/// run: the first run records its size and hash, later runs compare.
bool containerMatchesRecord(const RunConfig &C, const RunOutcome &O) {
  std::string Path = C.WorkDir + "/container-" + C.Workload + "-" +
                     std::to_string(C.Seed) + ".txt";
  unsigned long long Bytes = 0, Hash = 0;
  std::ifstream In(Path);
  if (In >> Bytes >> Hash)
    return Bytes == O.ContainerBytes && Hash == O.ContainerHash;
  std::ofstream Out(Path, std::ios::trunc);
  Out << O.ContainerBytes << ' ' << O.ContainerHash << '\n';
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig C;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; I += 2) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage("missing value for " + Flag);
    const char *Val = Argv[I + 1];
    if (Flag == "--workload") {
      C.Workload = Val;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      C.Seed = parseUnsigned(Flag, Val, ~0ull);
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      C.Seconds = static_cast<double>(parseUnsigned(Flag, Val, 3600));
      HaveSeconds = C.Seconds > 0;
    } else if (Flag == "--trace") {
      C.Trace = parseUnsigned(Flag, Val, 1) == 1;
      HaveTrace = true;
    } else if (Flag == "--workdir") {
      C.WorkDir = Val;
    } else {
      usage("unknown flag " + Flag);
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace ||
      C.WorkDir.empty())
    usage("every flag is required and --seconds must be positive");
  if (!isWorkload(C.Workload))
    usage("unknown workload " + C.Workload);
  std::error_code EC;
  std::filesystem::create_directories(C.WorkDir, EC);
  if (EC)
    usage("cannot create " + C.WorkDir + ": " + EC.message());

  RunOutcome O = runWorkload(C);
  if (!containerMatchesRecord(C, O)) {
    std::fprintf(stderr, "perfbench: container bytes differ from an earlier "
                         "run of this seed\n");
    O.Correct = false;
  }
  if (C.Trace) {
    std::string Path = C.WorkDir + "/spans-" + C.Workload + ".tsv";
    if (!writeSpans(Path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
  }
  O.Metrics.printTable(stderr);
  std::printf("%s\n", O.Metrics.resultJson(O.Correct, O.Attempted, O.Failed)
                          .c_str());
  std::fflush(stdout);
  return 0;
}
