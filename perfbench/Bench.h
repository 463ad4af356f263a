//===- perfbench/Bench.h - Shared run state of the benchmark ---------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the parsed command line, the run report
/// (correctness, attempted/failed operations, metrics), the per-layer
/// metric table of the traced mode, and small statistics helpers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  /// Directory (inside the checkout) for stores and trace files.
  std::string WorkDir;
};

/// Worker threads of every workload: one per core, at most four.
unsigned benchJobs();

/// Seconds since the process started (static initialisation).
double sinceStart();

/// System CPU seconds of the calling thread (RUSAGE_THREAD).
double threadSysSeconds();

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double peakRssMb();

/// Removes a run's temporary directory (a store, saved profiles) when the
/// run ends, whichever way it ends.
class RemoveOnExit {
public:
  explicit RemoveOnExit(std::string Path) : Path(std::move(Path)) {}
  ~RemoveOnExit();
  RemoveOnExit(const RemoveOnExit &) = delete;
  RemoveOnExit &operator=(const RemoveOnExit &) = delete;

private:
  std::string Path;
};

double median(std::vector<double> Values);
/// Nearest-rank percentile, \p P in (0, 100].
double percentile(std::vector<double> Values, double P);

struct Metric {
  double Value = 0.0;
  std::string Unit;
};

/// One run's result: printed as the last stdout line.
class Report {
public:
  /// Records a failed correctness check (printed to stderr).
  void check(bool Ok, const std::string &What);

  void addAttempted(uint64_t N) { Attempted += N; }
  void addFailed(uint64_t N) { Failed += N; }

  void set(const std::string &Name, double Value, const std::string &Unit);

  /// The JSON line: the end-to-end metrics (untraced) or every per-layer
  /// metric (traced, zero for layers the workload does not exercise).
  std::string renderJson(bool Traced) const;

private:
  double get(const std::string &Name) const;

  bool Correct = true;
  unsigned FailedChecks = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, Metric> Metrics;
};

/// The end-to-end metric names with units, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();
/// The per-layer metric names with units, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/// Optimizer pass names (parseOptPasses spelling), pipeline order.
const std::vector<std::string> &optPassNames();
/// Analyzer rule names, in AnalysisOptions field order.
const std::vector<std::string> &analyzerRuleNames();

int runSuitePgo(const Args &A, Report &R);
int runPgoCompile(const Args &A, Report &R);
int runServerEdits(const Args &A, Report &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
