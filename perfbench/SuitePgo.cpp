//===- perfbench/SuitePgo.cpp - The §4 experiment over the suite ----------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workload suite-pgo: the §4 experiment as every table bench runs it,
/// with the default PipelineOptions. One pass is one runBatchPipeline
/// over the 12 programs with a fresh definition cache; one operation is
/// one program's pipeline. Profiling and re-profiling do nearly all of
/// the work, so engine and instrumentation changes show here and
/// compile-layer changes do not.
///
/// The traced run builds the same pipeline from the layer entry points
/// on a ThreadPool of the same size, one span per call, and checks that
/// it matches runBatchPipeline exactly.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "Compose.h"
#include "Inputs.h"
#include "Trace.h"

#include "callgraph/CallGraphBuilder.h"
#include "driver/BatchPipeline.h"
#include "driver/FunctionCache.h"
#include "ir/IrPrinter.h"
#include "support/Stopwatch.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <stdexcept>

using namespace impact;
using namespace perfbench;

namespace {

std::vector<BatchJob> makeJobs(const std::vector<SuiteProgram> &Suite) {
  std::vector<BatchJob> Jobs;
  for (const SuiteProgram &P : Suite) {
    BatchJob J;
    J.Name = P.Spec->Name;
    J.Source = P.Spec->Source;
    J.Inputs = P.Inputs;
    Jobs.push_back(std::move(J));
  }
  return Jobs;
}

/// The pipeline of one job, composed from the layer calls.
struct ComposedUnit {
  bool Ok = false;
  std::string Error;
  PhaseMetrics Before;
  PhaseMetrics After;
  ProfileData ProfileBefore;
  std::vector<std::string> OutputsBefore;
  std::vector<std::string> OutputsAfter;
  InlineResult Inline;
  Module Final;
  LayerCounts Counts;
  double Seconds = 0.0;
};

ComposedUnit composeUnit(Tracer &T, int Parent, const BatchJob &J,
                         FunctionDefinitionCache &Cache) {
  ComposedUnit U;
  Tracer::Span Unit(T, "driver.unit", J.Name, Parent);
  const PipelineOptions &O = J.Options;
  CompilationResult C = tracedCompile(T, J.Source, J.Name, U.Counts);
  if (!C.Ok) {
    U.Error = "compile: " + C.Errors;
    return U;
  }
  Module M = std::move(C.M);
  std::string V = tracedVerify(T, M);
  if (V.empty() && O.RunPreOpt) {
    tracedPreOpt(T, M, O.PreOpt, Cache, U.Counts);
    V = tracedVerify(T, M);
  }
  if (!V.empty()) {
    U.Error = "verify: " + V;
    return U;
  }
  ProfileResult Pre =
      tracedProfile(T, "profile.measure", M, J.Inputs, O.Run, U.Counts);
  if (!Pre.allRunsOk()) {
    U.Error = "profile: " + Pre.Failures.front();
    return U;
  }
  fillPhase(U.Before, M, Pre.Data);
  U.ProfileBefore = Pre.Data;
  U.Inline = tracedInline(T, M, Pre.Data, O.Inline, U.Counts);
  fillPhaseClasses(U.Before, U.Inline.Classes);
  if (std::string V2 = tracedVerify(T, M); !V2.empty()) {
    U.Error = "verify after inlining: " + V2;
    return U;
  }
  ProfileResult Post =
      tracedProfile(T, "profile.reprofile", M, J.Inputs, O.Run, U.Counts);
  if (!Post.allRunsOk()) {
    U.Error = "re-profile: " + Post.Failures.front();
    return U;
  }
  fillPhase(U.After, M, Post.Data);
  {
    CallGraphOptions GO;
    GO.AssumeExternalsCallBack = O.Inline.AssumeExternalsCallBack;
    CallGraph G = [&] {
      Tracer::Span S(T, "callgraph.build", J.Name);
      return buildCallGraph(M, &Post.Data, GO);
    }();
    Tracer::Span S(T, "core.classify", J.Name);
    fillPhaseClasses(U.After, classifyCallSites(M, G, Post.Data, O.Inline));
  }
  U.OutputsBefore = std::move(Pre.Outputs);
  U.OutputsAfter = std::move(Post.Outputs);
  U.Final = std::move(M);
  U.Ok = true;
  U.Seconds = Unit.elapsed();
  return U;
}

/// Set-up's reference profiles: each program's pre-optimised module
/// profiled by the VM. Every pass's walker profile must equal them.
std::vector<ProfileData> referenceProfiles(const std::vector<BatchJob> &Jobs) {
  std::vector<ProfileData> Refs;
  for (const BatchJob &J : Jobs) {
    CompilationResult C = compileMiniC(J.Source, J.Name);
    if (!C.Ok)
      throw std::runtime_error("set-up of " + J.Name + ": " + C.Errors);
    for (Function &F : C.M.Funcs)
      if (!F.IsExternal)
        runOptimizationPipeline(F, J.Options.PreOpt);
    ProfileResult P =
        profileProgram(C.M, J.Inputs, J.Options.Run, ExecEngine::Vm);
    if (!P.allRunsOk())
      throw std::runtime_error("set-up of " + J.Name + ": " +
                               P.Failures.front());
    Refs.push_back(std::move(P.Data));
  }
  return Refs;
}

/// The checks every pass's outcome must pass, the reference profiles, and
/// determinism against the first pass's printed modules.
void checkPass(Report &R, const std::vector<BatchJob> &Jobs,
               const std::vector<Outcome> &Outcomes,
               const std::vector<const Module *> &Finals,
               const std::vector<const ProfileData *> &Profiles,
               const std::vector<ProfileData> &Refs,
               std::vector<std::string> &FirstPrinted) {
  FirstPrinted.resize(Jobs.size());
  for (size_t I = 0; I != Jobs.size(); ++I) {
    if (!Finals[I])
      continue; // a failed operation, counted in `failed`
    R.check(*Profiles[I] == Refs[I],
            Jobs[I].Name + ": walker profile differs from the VM reference");
    for (const std::string &P : checkOutcome(Outcomes[I]))
      R.check(false, P);
    std::string Printed = printModule(*Finals[I]);
    if (FirstPrinted[I].empty())
      FirstPrinted[I] = std::move(Printed);
    else
      R.check(Printed == FirstPrinted[I],
              Jobs[I].Name + ": final module differs between passes");
  }
}

/// Both engines agree on every final module, and their per-run IL and
/// call counts equal the pipeline's re-profile.
void checkEngines(Report &R, const std::vector<BatchJob> &Jobs,
                  const std::vector<const Module *> &Finals,
                  const std::vector<PhaseMetrics> &After) {
  std::vector<EngineRuns> Runs(Jobs.size());
  std::vector<std::vector<std::string>> Problems(Jobs.size());
  {
    ThreadPool Pool(benchJobs());
    for (size_t I = 0; I != Jobs.size(); ++I)
      if (Finals[I])
        Pool.submit([&, I] {
          Runs[I] = runBothEngines(*Finals[I], Jobs[I].Inputs, Problems[I]);
        });
    Pool.wait();
  }
  for (size_t I = 0; I != Jobs.size(); ++I) {
    for (const std::string &P : Problems[I])
      R.check(false, P);
    if (!Finals[I])
      continue;
    PhaseMetrics Engine;
    fillPhase(Engine, *Finals[I], Runs[I].Profile);
    R.check(Engine.AvgInstrs == After[I].AvgInstrs &&
                Engine.AvgCalls == After[I].AvgCalls &&
                Engine.StaticSize == After[I].StaticSize,
            Jobs[I].Name + ": engine counts differ from the re-profile");
  }
}

void reportCodeQuality(Report &R, const std::vector<PhaseMetrics> &After) {
  double Il = 0, Calls = 0, Static = 0;
  for (const PhaseMetrics &P : After) {
    Il += P.AvgInstrs;
    Calls += P.AvgCalls;
    Static += static_cast<double>(P.StaticSize);
  }
  R.set("dyn_il_per_run", Il, "count");
  R.set("dyn_calls_per_run", Calls, "count");
  R.set("static_il", Static, "count");
}

int runUntraced(const Args &A, Report &R, const std::vector<BatchJob> &Jobs,
                const std::vector<ProfileData> &Refs) {
  std::vector<double> Walls;
  std::vector<std::string> FirstPrinted;
  BatchResult Last;
  Stopwatch Clock;
  do {
    BatchOptions B;
    B.Jobs = benchJobs();
    Stopwatch Wall;
    BatchResult Res = runBatchPipeline(Jobs, B);
    Walls.push_back(Wall.seconds());
    R.addAttempted(Jobs.size());
    R.addFailed(Res.Failures.size());
    std::vector<Outcome> Outcomes;
    std::vector<const Module *> Finals;
    std::vector<const ProfileData *> Profiles;
    for (size_t I = 0; I != Jobs.size(); ++I) {
      const PipelineResult &P = Res.Results[I];
      Outcomes.push_back(outcomeOf(Jobs[I].Name, Jobs[I].Inputs, P));
      Finals.push_back(P.Ok ? &P.FinalModule : nullptr);
      Profiles.push_back(&P.ProfileBefore);
    }
    checkPass(R, Jobs, Outcomes, Finals, Profiles, Refs, FirstPrinted);
    Last = std::move(Res);
  } while (Clock.seconds() < A.Seconds);

  std::vector<const Module *> Finals;
  std::vector<PhaseMetrics> After;
  for (const PipelineResult &P : Last.Results) {
    Finals.push_back(P.Ok ? &P.FinalModule : nullptr);
    After.push_back(P.After);
  }
  checkEngines(R, Jobs, Finals, After);
  R.set("pass_s", median(Walls), "s");
  reportCodeQuality(R, After);
  return 0;
}

int runTraced(const Args &A, Report &R, const std::vector<BatchJob> &Jobs,
              const std::vector<ProfileData> &Refs) {
  Tracer T;
  std::vector<double> Walls;
  std::vector<std::string> FirstPrinted;
  std::vector<ComposedUnit> Last;
  LayerCounts Counts;
  double CpuSum = 0.0, SlowestSum = 0.0;
  unsigned Passes = 0;
  Stopwatch Clock;
  do {
    std::vector<ComposedUnit> Units(Jobs.size());
    FunctionDefinitionCache Cache;
    double Wall = 0.0;
    {
      Tracer::Span Pass(T, "driver.batch", "suite");
      ThreadPool Pool(benchJobs());
      for (size_t I = 0; I != Jobs.size(); ++I)
        Pool.submit([&, I, Parent = Pass.id()] {
          Units[I] = composeUnit(T, Parent, Jobs[I], Cache);
        });
      Pool.wait();
      Wall = Pass.elapsed();
    }
    Walls.push_back(Wall);
    ++Passes;
    R.addAttempted(Jobs.size());
    std::vector<Outcome> Outcomes(Jobs.size());
    std::vector<const Module *> Finals;
    std::vector<const ProfileData *> Profiles;
    double Slowest = 0.0;
    for (size_t I = 0; I != Jobs.size(); ++I) {
      ComposedUnit &U = Units[I];
      R.addFailed(U.Ok ? 0 : 1);
      Counts.merge(U.Counts);
      CpuSum += U.Seconds;
      Slowest = std::max(Slowest, U.Seconds);
      Outcomes[I] = {Jobs[I].Name,    &Jobs[I].Inputs, &U.OutputsBefore,
                     &U.OutputsAfter, U.Before,        U.After,
                     &U.Inline};
      Finals.push_back(U.Ok ? &U.Final : nullptr);
      Profiles.push_back(&U.ProfileBefore);
    }
    SlowestSum += Slowest;
    checkPass(R, Jobs, Outcomes, Finals, Profiles, Refs, FirstPrinted);
    Last = std::move(Units);
  } while (Clock.seconds() < A.Seconds);

  // The composition must be the pipeline: same metrics, same modules.
  BatchOptions B;
  B.Jobs = benchJobs();
  BatchResult Ref = runBatchPipeline(Jobs, B);
  for (size_t I = 0; I != Jobs.size(); ++I) {
    const PipelineResult &P = Ref.Results[I];
    const ComposedUnit &U = Last[I];
    R.check(P.Ok == U.Ok, Jobs[I].Name + ": composed status differs");
    if (!P.Ok || !U.Ok)
      continue;
    R.check(P.Before == U.Before && P.After == U.After &&
                P.Inline.Plan == U.Inline.Plan &&
                P.OutputsBefore == U.OutputsBefore &&
                P.OutputsAfter == U.OutputsAfter &&
                printModule(P.FinalModule) == printModule(U.Final),
            Jobs[I].Name + ": composed pipeline differs from "
                           "runBatchPipeline");
  }

  double Scale = 1.0 / Passes;
  std::map<std::string, double> Self = T.selfSeconds();
  for (const char *Layer :
       {"interp.run", "profile.measure", "profile.reprofile",
        "frontend.compile", "ir.verify", "opt.preopt", "callgraph.build",
        "core.classify", "core.linearize", "core.plan", "core.expand",
        "core.dfe", "analysis.range_facts", "opt.postopt"})
    R.set(std::string(Layer) + "_s", Self[Layer] * Scale, "s");
  std::map<std::string, double> Tot = T.totalSeconds();
  double InterpS = Tot["interp.run"];
  R.set("interp.sys_s", Counts.InterpSys * Scale, "s");
  R.set("interp.il_per_s", InterpS > 0 ? Counts.IlExecuted / InterpS : 0,
        "1/s");
  R.set("profile.runs", Counts.ProfileRuns * Scale, "count");
  R.set("profile.il_executed", Counts.IlExecuted * Scale, "count");
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
  R.set("driver.function_cache.hits", Counts.CacheHits * Scale, "count");
  R.set("driver.function_cache.misses", Counts.CacheMisses * Scale, "count");
  R.set("trace.pass_s", median(Walls), "s");
  std::string Path = A.WorkDir + "/trace-suite-pgo-" +
                     std::to_string(A.Seed) + ".json";
  R.check(T.writeTraceEvents(Path), "cannot write " + Path);
  return 0;
}

} // namespace

int perfbench::runSuitePgo(const Args &A, Report &R) {
  std::vector<BatchJob> Jobs = makeJobs(makeSeededSuite(A.Seed));
  std::vector<ProfileData> Refs = referenceProfiles(Jobs);
  R.set("setup_s", sinceStart(), "s");
  return A.Trace ? runTraced(A, R, Jobs, Refs) : runUntraced(A, R, Jobs, Refs);
}
