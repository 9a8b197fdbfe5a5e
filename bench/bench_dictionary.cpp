//===- bench/bench_dictionary.cpp - Dictionary statistics (section 4) ----------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// Reproduces the in-text dictionary statistics of section 4: candidate
// counts ("the total number of candidates tested in compressing
// gcc-2.6.3 is 93,211"), final dictionary sizes ("981 instruction
// patterns" for icc, "1232" for gcc), successor-table bounds ("at most
// 244 instruction patterns can follow"), and a K sweep showing the
// greedy trade-off.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

#include "brisc/Brisc.h"
#include "vm/Encode.h"

using namespace ccomp;
using namespace ccomp::bench;

int main() {
  std::printf("Dictionary construction statistics\n\n");
  std::printf("%-6s %12s %10s %8s %10s %10s %12s\n", "input",
              "candidates", "patterns", "passes", "max succ",
              "image B", "bytes/instr");
  hr();
  for (const char *Cls : {"wep", "icc"}) {
    vm::VMProgram P = mustBuild(corpus::sizeClassSource(Cls));
    brisc::CompressStats S;
    brisc::BriscProgram B = brisc::compress(P, brisc::CompressOptions(),
                                            &S);
    size_t MaxSucc = 0;
    for (uint32_t Ctx = 0; Ctx != B.Successors.numContexts(); ++Ctx)
      MaxSucc = std::max(MaxSucc, B.Successors.of(Ctx).size());
    uint64_t Instrs = vm::countInstrs(P);
    std::printf("%-6s %12zu %10zu %8u %10zu %10zu %12.2f\n", Cls,
                S.CandidatesTested, S.DictPatterns, S.Passes, MaxSucc,
                S.TotalBytes, double(S.CodeBytes) / double(Instrs));
  }
  hr();
  std::printf("paper: icc dictionary 981 patterns; gcc 1232 patterns, "
              "93211 candidates; <=244 successors\n\n");

  // K sweep on the wep class (K is the per-pass adoption budget).
  std::printf("K sweep (wep class, AutoK off):\n");
  std::printf("%6s %10s %8s %12s\n", "K", "patterns", "passes", "bytes");
  hr();
  vm::VMProgram P = mustBuild(corpus::sizeClassSource("wep"));
  for (unsigned K : {5u, 10u, 20u, 40u, 80u}) {
    brisc::CompressOptions Opts;
    Opts.K = K;
    Opts.AutoK = false;
    brisc::CompressStats S;
    brisc::compress(P, Opts, &S);
    std::printf("%6u %10zu %8u %12zu\n", K, S.DictPatterns, S.Passes,
                S.TotalBytes);
  }
  hr();
  return 0;
}
