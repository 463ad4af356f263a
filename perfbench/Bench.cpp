//===- perfbench/Bench.cpp ------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sys/resource.h>
#include <thread>

using namespace perfbench;

namespace {

std::chrono::steady_clock::time_point ProcessStart =
    std::chrono::steady_clock::now();

double toSeconds(const timeval &T) {
  return static_cast<double>(T.tv_sec) +
         static_cast<double>(T.tv_usec) / 1e6;
}

/// Shortest round-trip decimal form of \p V (JSON has no inf/nan).
std::string formatNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::vector<std::pair<std::string, std::string>> buildPerLayer() {
  std::vector<std::pair<std::string, std::string>> L = {
      {"trace.pass_s", "s"},
      {"interp.run_s", "s"},
      {"interp.sys_s", "s"},
      {"interp.il_per_s", "1/s"},
      {"vm.bytecode_compile_s", "s"},
      {"vm.run_s", "s"},
      {"vm.il_per_s", "1/s"},
      {"profile.measure_s", "s"},
      {"profile.reprofile_s", "s"},
      {"profile.load_s", "s"},
      {"profile.runs", "count"},
      {"profile.il_executed", "count"},
      {"frontend.compile_s", "s"},
      {"frontend.bytes_per_s", "B/s"},
      {"ir.verify_s", "s"},
      {"opt.preopt_s", "s"},
  };
  for (const std::string &P : optPassNames()) {
    L.push_back({"opt.preopt." + P + ".applied", "count"});
    L.push_back({"opt.preopt." + P + "_s", "s"});
  }
  for (const char *N :
       {"callgraph.build_s", "core.classify_s", "core.linearize_s",
        "core.plan_s", "core.expand_s", "core.dfe_s"})
    L.push_back({N, "s"});
  for (const char *N :
       {"core.sites_expanded", "core.sites_rejected", "core.il_growth"})
    L.push_back({N, "count"});
  L.push_back({"analysis.range_facts_s", "s"});
  L.push_back({"opt.postopt_s", "s"});
  for (const std::string &P : optPassNames())
    L.push_back({"opt.postopt." + P + ".applied", "count"});
  L.push_back({"analysis.analyze_s", "s"});
  for (const std::string &Rule : analyzerRuleNames())
    L.push_back({"analysis.rule." + Rule + "_s", "s"});
  L.push_back({"analysis.findings", "count"});
  std::vector<std::pair<std::string, std::string>> Tail = {
      {"driver.batch_wall_s", "s"},
      {"driver.batch_cpu_s", "s"},
      {"driver.slowest_unit_s", "s"},
      {"driver.function_cache.hits", "count"},
      {"driver.function_cache.misses", "count"},
      {"server.edit_p50_ms", "ms"},
      {"server.edit_p95_ms", "ms"},
      {"server.restart_s", "s"},
      {"server.touched_units", "count"},
      {"server.recompiled_programs", "count"},
      {"server.recompile_s", "s"},
      {"linker.link_s", "s"},
      {"cache_store.save_s", "s"},
      {"cache_store.load_s", "s"},
      {"cache_store.bytes", "B"},
      {"function_cache.persistent_hits", "count"},
  };
  L.insert(L.end(), Tail.begin(), Tail.end());
  return L;
}

} // namespace

unsigned perfbench::benchJobs() {
  unsigned N = std::thread::hardware_concurrency();
  return std::clamp(N, 1u, 4u);
}

double perfbench::sinceStart() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       ProcessStart)
      .count();
}

double perfbench::threadSysSeconds() {
  rusage U{};
  getrusage(RUSAGE_THREAD, &U);
  return toSeconds(U.ru_stime);
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

RemoveOnExit::~RemoveOnExit() {
  std::error_code EC;
  std::filesystem::remove_all(Path, EC);
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2.0;
}

double perfbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(
      std::ceil(P / 100.0 * static_cast<double>(Values.size())));
  return Values[std::clamp<size_t>(Rank, 1, Values.size()) - 1];
}

void Report::check(bool Ok, const std::string &What) {
  if (Ok)
    return;
  Correct = false;
  // The first few failures explain a broken run; the rest only repeat.
  if (++FailedChecks <= 20)
    std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
}

void Report::set(const std::string &Name, double Value,
                 const std::string &Unit) {
  Metrics[Name] = {Value, Unit};
}

double Report::get(const std::string &Name) const {
  auto It = Metrics.find(Name);
  return It == Metrics.end() ? 0.0 : It->second.Value;
}

std::string Report::renderJson(bool Traced) const {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Unit] :
       Traced ? perLayerMetrics() : endToEndMetrics()) {
    Out += First ? "" : ", ";
    First = false;
    Out += "\"" + Name + "\": {\"value\": " + formatNumber(get(Name)) +
           ", \"unit\": \"" + Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

const std::vector<std::pair<std::string, std::string>> &
perfbench::endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> L = {
      {"setup_s", "s"},          {"pass_s", "s"},
      {"peak_rss_mb", "MB"},     {"dyn_il_per_run", "count"},
      {"dyn_calls_per_run", "count"}, {"static_il", "count"},
  };
  return L;
}

const std::vector<std::pair<std::string, std::string>> &
perfbench::perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> L =
      buildPerLayer();
  return L;
}

const std::vector<std::string> &perfbench::optPassNames() {
  static const std::vector<std::string> L = {
      "tre", "copy", "sccp", "fold", "peephole", "jump", "licm", "dce"};
  return L;
}

const std::vector<std::string> &perfbench::analyzerRuleNames() {
  static const std::vector<std::string> L = {
      "uninit-read",          "unreachable-block",
      "dead-store",           "audit-safe-expansion",
      "audit-callgraph",      "audit-weight-conservation",
      "audit-linearization",  "guaranteed-trap",
      "range-contradiction"};
  return L;
}
