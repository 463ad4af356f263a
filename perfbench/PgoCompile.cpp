//===- perfbench/PgoCompile.cpp - Optimised profile-driven compiles -------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workload pgo-compile: profiles are measured once during set-up and
/// saved in impact-profile format. Each pass loads them and compiles every
/// suite program from source with every pre-opt and post-inline pass on
/// (ranges included) and the analyzer running every rule; one operation
/// is one program's compile. Nothing is interpreted inside the timed
/// region, so the frontend, opt, analysis and core layers do all of the
/// timed work and an engine change must leave pass_s unmoved. After the
/// timed passes the final modules run once under both engines for the
/// checks and the code-quality counts.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "Compose.h"
#include "Inputs.h"
#include "Trace.h"

#include "ir/IrPrinter.h"
#include "ir/IrVerifier.h"
#include "profile/ProfileIO.h"
#include "support/Stopwatch.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <unistd.h>

using namespace impact;
using namespace perfbench;

namespace {

struct Config {
  OptOptions Opt;
  InlineOptions Inline;
  AnalysisOptions Analysis;
};

Config makeConfig() {
  Config C;
  std::string Error;
  if (!parseOptPasses("all", C.Opt, &Error))
    throw std::runtime_error(Error);
  C.Inline.PostInlineOptimize = true;
  C.Inline.PostOpt = C.Opt;
  return C; // AnalysisOptions default to every rule
}

/// What set-up measured on the pre-inline module.
struct Reference {
  std::string ProfilePath;
  PhaseMetrics Before;
  std::vector<std::string> Outputs;
};

/// One program's compile.
struct Compiled {
  bool Ok = false;
  std::string Error;
  Module M;
  InlineResult Inline;
  AnalysisReport Analysis;
};

void fail(Compiled &C, const SuiteProgram &P, const std::string &Stage,
          const std::string &Detail) {
  C.Error = P.Spec->Name + ": " + Stage + ": " + Detail;
}

/// The library's composite calls, untimed inside: what a user runs.
Compiled compileOnce(const SuiteProgram &P, const Reference &Ref,
                     const Config &Cfg) {
  Compiled Out;
  ProfileData Profile;
  std::string Error;
  if (!loadProfileFromFile(Ref.ProfilePath, Profile, &Error)) {
    fail(Out, P, "load profile", Error);
    return Out;
  }
  CompilationResult C = compileMiniC(P.Spec->Source, P.Spec->Name);
  if (!C.Ok) {
    fail(Out, P, "compile", C.Errors);
    return Out;
  }
  Out.M = std::move(C.M);
  std::string V = verifyModuleText(Out.M);
  if (V.empty()) {
    runOptimizationPipeline(Out.M, Cfg.Opt, nullptr);
    V = verifyModuleText(Out.M);
  }
  if (V.empty()) {
    Out.Inline = runInlineExpansion(Out.M, Profile, Cfg.Inline);
    V = verifyModuleText(Out.M);
  }
  if (!V.empty()) {
    fail(Out, P, "verify", V);
    return Out;
  }
  Out.Analysis = analyzeModule(Out.M, Cfg.Analysis);
  analyzeInlineInvariants(Out.M, Out.Inline, Profile, Cfg.Analysis,
                          Out.Analysis);
  Out.Ok = !Out.Analysis.hasErrors();
  if (!Out.Ok)
    fail(Out, P, "analyze", Out.Analysis.renderText());
  return Out;
}

/// The same compile, one layer call per span.
Compiled compileTraced(Tracer &T, int Parent, const SuiteProgram &P,
                       const Reference &Ref, const Config &Cfg,
                       LayerCounts &Counts, double &Seconds) {
  Tracer::Span Unit(T, "driver.unit", P.Spec->Name, Parent);
  Compiled Out;
  ProfileData Profile;
  std::string Error;
  bool Loaded = [&] {
    Tracer::Span S(T, "profile.load", P.Spec->Name);
    return loadProfileFromFile(Ref.ProfilePath, Profile, &Error);
  }();
  if (!Loaded) {
    fail(Out, P, "load profile", Error);
    return Out;
  }
  CompilationResult C = tracedCompile(T, P.Spec->Source, P.Spec->Name, Counts);
  if (!C.Ok) {
    fail(Out, P, "compile", C.Errors);
    return Out;
  }
  Out.M = std::move(C.M);
  std::string V = tracedVerify(T, Out.M);
  if (V.empty()) {
    {
      Tracer::Span S(T, "opt.preopt", P.Spec->Name);
      runOptimizationPipeline(Out.M, Cfg.Opt, &Counts.PreOpt);
    }
    V = tracedVerify(T, Out.M);
  }
  if (V.empty()) {
    Out.Inline = tracedInline(T, Out.M, Profile, Cfg.Inline, Counts);
    V = tracedVerify(T, Out.M);
  }
  if (!V.empty()) {
    fail(Out, P, "verify", V);
    return Out;
  }
  Out.Analysis =
      tracedAnalyze(T, Out.M, Out.Inline, Profile, Cfg.Analysis, Counts);
  Out.Ok = !Out.Analysis.hasErrors();
  if (!Out.Ok)
    fail(Out, P, "analyze", Out.Analysis.renderText());
  Seconds = Unit.elapsed();
  return Out;
}

/// Set-up: pre-opt each program as the timed compile does, profile it on
/// its inputs (VM; the engine never changes a profile) and save the
/// profile where the passes load it. Serial: a cold set-up on one thread
/// varies less from run to run than one racing a pool's start-up.
std::vector<Reference> measureProfiles(const std::vector<SuiteProgram> &Suite,
                                       const Config &Cfg,
                                       const std::string &Dir) {
  std::vector<Reference> Refs;
  for (const SuiteProgram &P : Suite) {
    std::string Error;
    CompilationResult C = compileMiniC(P.Spec->Source, P.Spec->Name);
    if (!C.Ok)
      Error = C.Errors;
    ProfileResult Pr;
    if (Error.empty()) {
      runOptimizationPipeline(C.M, Cfg.Opt, nullptr);
      Pr = profileProgram(C.M, P.Inputs, RunOptions(), ExecEngine::Vm,
                          InstrumentMode::Full);
      if (!Pr.allRunsOk())
        Error = Pr.Failures.front();
    }
    Reference Ref;
    Ref.ProfilePath = Dir + "/" + P.Spec->Name + ".profile";
    if (Error.empty())
      saveProfileToFile(Ref.ProfilePath, Pr.Data, &Error);
    if (!Error.empty())
      throw std::runtime_error("set-up of " + P.Spec->Name + ": " + Error);
    fillPhase(Ref.Before, C.M, Pr.Data);
    Ref.Outputs = std::move(Pr.Outputs);
    Refs.push_back(std::move(Ref));
  }
  return Refs;
}

/// Counts one pass and checks it against the first pass.
void notePass(Report &R, const std::vector<Compiled> &Pass,
              std::vector<std::string> &FirstPrinted) {
  FirstPrinted.resize(Pass.size());
  R.addAttempted(Pass.size());
  for (const Compiled &C : Pass) {
    size_t I = &C - Pass.data();
    if (!C.Ok) {
      R.addFailed(1);
      std::fprintf(stderr, "perfbench: %s\n", C.Error.c_str());
      continue;
    }
    std::string Printed = printModule(C.M) + C.Analysis.renderText();
    if (FirstPrinted[I].empty())
      FirstPrinted[I] = std::move(Printed);
    else
      R.check(Printed == FirstPrinted[I],
              C.M.Name + ": compile differs between passes");
  }
}

/// Runs the final modules under both engines: oracle, inlining-preserves
/// and call-count checks, and the code-quality metrics.
void checkFinal(Report &R, const std::vector<SuiteProgram> &Suite,
                const std::vector<Reference> &Refs,
                const std::vector<Compiled> &Last) {
  std::vector<EngineRuns> Runs(Suite.size());
  std::vector<std::vector<std::string>> Problems(Suite.size());
  {
    ThreadPool Pool(benchJobs());
    for (size_t I = 0; I != Suite.size(); ++I)
      if (Last[I].Ok)
        Pool.submit([&, I] {
          Runs[I] = runBothEngines(Last[I].M, Suite[I].Inputs, Problems[I]);
        });
    Pool.wait();
  }
  double Il = 0, Calls = 0, Static = 0;
  for (size_t I = 0; I != Suite.size(); ++I) {
    for (const std::string &P : Problems[I])
      R.check(false, P);
    if (!Last[I].Ok)
      continue;
    Outcome O;
    O.Name = Suite[I].Spec->Name;
    O.Inputs = &Suite[I].Inputs;
    O.OutputsBefore = &Refs[I].Outputs;
    O.OutputsAfter = &Runs[I].Outputs;
    O.Before = Refs[I].Before;
    fillPhase(O.After, Last[I].M, Runs[I].Profile);
    O.Inline = &Last[I].Inline;
    for (const std::string &P : checkOutcome(O))
      R.check(false, P);
    Il += O.After.AvgInstrs;
    Calls += O.After.AvgCalls;
    Static += static_cast<double>(O.After.StaticSize);
  }
  R.set("dyn_il_per_run", Il, "count");
  R.set("dyn_calls_per_run", Calls, "count");
  R.set("static_il", Static, "count");
}

} // namespace

int perfbench::runPgoCompile(const Args &A, Report &R) {
  std::vector<SuiteProgram> Suite = makeSeededSuite(A.Seed);
  Config Cfg = makeConfig();
  std::string ProfileDir =
      A.WorkDir + "/profiles-" + std::to_string(::getpid());
  std::filesystem::create_directories(ProfileDir);
  RemoveOnExit Cleanup(ProfileDir);
  std::vector<Reference> Refs = measureProfiles(Suite, Cfg, ProfileDir);
  R.set("setup_s", sinceStart(), "s");

  Tracer T;
  LayerCounts Counts;
  double CpuSum = 0.0, SlowestSum = 0.0;
  std::vector<double> Walls;
  std::vector<std::string> FirstPrinted;
  std::vector<Compiled> Last;
  Stopwatch Clock;
  do {
    std::vector<Compiled> Pass(Suite.size());
    std::vector<LayerCounts> UnitCounts(Suite.size());
    std::vector<double> UnitSeconds(Suite.size(), 0.0);
    std::optional<Tracer::Span> PassSpan;
    if (A.Trace)
      PassSpan.emplace(T, "driver.batch", "suite");
    Stopwatch Wall;
    {
      ThreadPool Pool(benchJobs());
      for (size_t I = 0; I != Suite.size(); ++I)
        Pool.submit([&, I] {
          Pass[I] = A.Trace ? compileTraced(T, PassSpan->id(), Suite[I],
                                            Refs[I], Cfg, UnitCounts[I],
                                            UnitSeconds[I])
                            : compileOnce(Suite[I], Refs[I], Cfg);
        });
      Pool.wait();
    }
    Walls.push_back(Wall.seconds());
    PassSpan.reset();
    double Slowest = 0.0;
    for (size_t I = 0; I != Suite.size(); ++I) {
      Counts.merge(UnitCounts[I]);
      CpuSum += UnitSeconds[I];
      Slowest = std::max(Slowest, UnitSeconds[I]);
    }
    SlowestSum += Slowest;
    notePass(R, Pass, FirstPrinted);
    Last = std::move(Pass);
  } while (Clock.seconds() < A.Seconds);

  checkFinal(R, Suite, Refs, Last);
  if (!A.Trace) {
    R.set("pass_s", median(Walls), "s");
    return 0;
  }

  // The composition must be the composite calls: same modules, same plan,
  // same findings.
  for (size_t I = 0; I != Suite.size(); ++I) {
    Compiled Ref = compileOnce(Suite[I], Refs[I], Cfg);
    R.check(Ref.Ok == Last[I].Ok &&
                printModule(Ref.M) == printModule(Last[I].M) &&
                Ref.Inline.Plan == Last[I].Inline.Plan &&
                Ref.Analysis == Last[I].Analysis,
            Suite[I].Spec->Name + ": composed compile differs from "
                                  "runInlineExpansion/analyzeModule");
  }
  double Scale = 1.0 / static_cast<double>(Walls.size());
  std::map<std::string, double> Self = T.selfSeconds();
  std::map<std::string, double> Tot = T.totalSeconds();
  for (const char *Layer :
       {"profile.load", "frontend.compile", "ir.verify", "opt.preopt",
        "callgraph.build", "core.classify", "core.linearize", "core.plan",
        "core.expand", "core.dfe", "analysis.range_facts", "opt.postopt",
        "analysis.analyze"})
    R.set(std::string(Layer) + "_s", Self[Layer] * Scale, "s");
  for (const std::string &Rule : analyzerRuleNames()) {
    std::string Name = "analysis.rule." + Rule;
    R.set(Name + "_s", Self[Name] * Scale, "s");
  }
  R.set("analysis.findings", Counts.Findings * Scale, "count");
  double FrontS = Tot["frontend.compile"];
  R.set("frontend.bytes_per_s", FrontS > 0 ? Counts.SourceBytes / FrontS : 0,
        "B/s");
  reportOptStats(R, "preopt", Counts.PreOpt, Scale, true);
  reportOptStats(R, "postopt", Counts.PostOpt, Scale, false);
  R.set("core.sites_expanded", Counts.SitesExpanded * Scale, "count");
  R.set("core.sites_rejected", Counts.SitesRejected * Scale, "count");
  R.set("core.il_growth", Counts.IlGrowth * Scale, "count");
  R.set("driver.batch_wall_s", Tot["driver.batch"] * Scale, "s");
  R.set("driver.batch_cpu_s", CpuSum * Scale, "s");
  R.set("driver.slowest_unit_s", SlowestSum * Scale, "s");
  R.set("trace.pass_s", median(Walls), "s");
  std::string Path = A.WorkDir + "/trace-pgo-compile-" +
                     std::to_string(A.Seed) + ".json";
  R.check(T.writeTraceEvents(Path), "cannot write " + Path);
  return 0;
}
