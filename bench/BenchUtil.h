//===- bench/BenchUtil.h - Shared experiment-harness helpers ----*- C++ -*-===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiment harness's view of the shared corpus/build/timing
/// helpers (harness/CorpusUtil.h). Kept as an alias namespace so bench
/// sources keep reading `bench::suiteProgram()` etc.
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_BENCH_BENCHUTIL_H
#define CCOMP_BENCH_BENCHUTIL_H

#include "CorpusUtil.h"

#include "support/Support.h"

#include <cstdio>

namespace ccomp {
namespace bench {

using harness::hr;
using harness::mustBuild;
using harness::mustCompile;
using harness::suiteModule;
using harness::suiteProgram;
using harness::syntheticSource;
using harness::timeIt;
using harness::timeStable;

} // namespace bench
} // namespace ccomp

#endif // CCOMP_BENCH_BENCHUTIL_H
