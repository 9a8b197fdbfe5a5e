//===- perfbench/cpp/Report.cpp - Metric records and sample statistics ---===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include "support/Support.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] * (1.0 - Frac) + V[Hi] * Frac;
}

size_t perfbench::countBeyond(const std::vector<double> &V, double Q) {
  double Cut = quantile(V, Q);
  return static_cast<size_t>(
      std::count_if(V.begin(), V.end(), [&](double X) { return X > Cut; }));
}

void MetricWriter::add(const std::string &Name, const char *Unit,
                       double Value) {
  if (!std::isfinite(Value))
    ccomp::reportFatal("perfbench: metric " + Name + " is not finite");
  for (const Metric &M : Metrics)
    if (M.Name == Name)
      ccomp::reportFatal("perfbench: metric " + Name + " reported twice");
  Metrics.push_back({Name, Unit, Value});
}

namespace {

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string number(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

std::string MetricWriter::resultJson(bool Correct, uint64_t Attempted,
                                     uint64_t Failed) const {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    if (I)
      Out += ", ";
    Out += quoted(Metrics[I].Name) + ": {\"value\": " +
           number(Metrics[I].Value) + ", \"unit\": " +
           quoted(Metrics[I].Unit) + "}";
  }
  return Out + "}}";
}

void MetricWriter::printTable(std::FILE *Out) const {
  for (const Metric &M : Metrics)
    std::fprintf(Out, "  %-36s %16.6g %s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str());
}
