//===- perfbench/main.cpp - The benchmark's command line ------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <suite-pgo|pgo-compile|server-edits> --seed <n>
///           --seconds <s> --trace <0|1> [--work-dir <dir>]
///
/// Runs one workload for about --seconds seconds and prints, as the last
/// stdout line, one JSON object: correct, attempted, failed and the
/// metrics (end-to-end untraced, per-layer traced). Exits 2 on a bad
/// command line and 1 when the run cannot complete.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

using namespace perfbench;

namespace {

bool parseUnsigned(const std::string &Text, uint64_t &Out) {
  if (Text.empty() || Text.size() > 19 ||
      Text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  Out = std::stoull(Text);
  return true;
}

int usage(const std::string &Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<suite-pgo|pgo-compile|server-edits> --seed <n> --seconds "
               "<s> --trace <0|1> [--work-dir <dir>]\n",
               Why.c_str());
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  A.WorkDir = ".bench_build/perfbench-work";
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 == Argc)
      return usage("missing value for " + Flag);
    std::string Value = Argv[++I];
    uint64_t N = 0;
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--seed") {
      if (!parseUnsigned(Value, N))
        return usage("bad --seed '" + Value + "'");
      A.Seed = N;
    } else if (Flag == "--seconds") {
      if (!parseUnsigned(Value, N) || N == 0 || N > 600)
        return usage("bad --seconds '" + Value + "'");
      A.Seconds = static_cast<unsigned>(N);
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return usage("bad --trace '" + Value + "'");
      A.Trace = Value == "1";
    } else if (Flag == "--work-dir") {
      A.WorkDir = Value;
    } else {
      return usage("unknown argument '" + Flag + "'");
    }
  }
  int (*Run)(const Args &, Report &) = nullptr;
  if (A.Workload == "suite-pgo")
    Run = runSuitePgo;
  else if (A.Workload == "pgo-compile")
    Run = runPgoCompile;
  else if (A.Workload == "server-edits")
    Run = runServerEdits;
  else
    return usage("unknown workload '" + A.Workload + "'");

  Report R;
  try {
    std::filesystem::create_directories(A.WorkDir);
    if (int RC = Run(A, R))
      return RC;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
  R.set("peak_rss_mb", peakRssMb(), "MB");
  std::printf("%s\n", R.renderJson(A.Trace).c_str());
  return 0;
}
