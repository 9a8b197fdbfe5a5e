//===- perfbench/cpp/Report.h - Metric records and sample statistics -----===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way the benchmark emits numbers: a MetricWriter collects
/// (name, unit, value) records and serializes them into the single result
/// object the benchmark prints last. The JSON is produced by one escaping
/// writer, so no caller formats JSON text by hand. Also the sample
/// statistics every workload shares (quantiles, the fixed tail
/// percentile).
///
//===----------------------------------------------------------------------===//

#ifndef CCOMP_PERFBENCH_REPORT_H
#define CCOMP_PERFBENCH_REPORT_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Linearly interpolated quantile \p Q in [0, 1] of \p V; 0 when empty.
double quantile(std::vector<double> V, double Q);

/// A workload's tail percentile: one of p90/p99/p99.9 that leaves at least
/// ten samples beyond it at the workload's usual sample count (the highest
/// such, unless it proved unsteady; see each workload). It is fixed per
/// workload, so two commits always compare the same percentile.
struct TailSpec {
  double Q;
  const char *Label;
};

/// Samples strictly above quantile \p Q of \p V.
size_t countBeyond(const std::vector<double> &V, double Q);

/// Collects named, unit-tagged metrics. Names must be unique and values
/// finite; a violation is a benchmark bug and aborts.
class MetricWriter {
public:
  void add(const std::string &Name, const char *Unit, double Value);

  /// The result object: exactly the keys correct, attempted, failed and
  /// metrics, on one line.
  std::string resultJson(bool Correct, uint64_t Attempted,
                         uint64_t Failed) const;

  /// Human-readable name/value/unit table.
  void printTable(std::FILE *Out) const;

private:
  struct Metric {
    std::string Name;
    std::string Unit;
    double Value;
  };
  std::vector<Metric> Metrics;
};

} // namespace perfbench

#endif // CCOMP_PERFBENCH_REPORT_H
