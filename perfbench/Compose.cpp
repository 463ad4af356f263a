//===- perfbench/Compose.cpp ----------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Compose.h"

#include "Bench.h"

#include "analysis/RangeAnalysis.h"
#include "callgraph/CallGraphBuilder.h"
#include "core/DeadFunctionElimination.h"
#include "driver/FunctionCache.h"
#include "ir/IrVerifier.h"

using namespace impact;
using namespace perfbench;

void LayerCounts::merge(const LayerCounts &O) {
  PreOpt.merge(O.PreOpt);
  PostOpt.merge(O.PostOpt);
  ProfileRuns += O.ProfileRuns;
  IlExecuted += O.IlExecuted;
  InterpSys += O.InterpSys;
  SourceBytes += O.SourceBytes;
  CacheHits += O.CacheHits;
  CacheMisses += O.CacheMisses;
  SitesExpanded += O.SitesExpanded;
  SitesRejected += O.SitesRejected;
  IlGrowth += O.IlGrowth;
  Findings += O.Findings;
}

CompilationResult perfbench::tracedCompile(Tracer &T, const std::string &Source,
                                           const std::string &Name,
                                           LayerCounts &C, bool RequireMain) {
  Tracer::Span S(T, "frontend.compile", Name);
  C.SourceBytes += Source.size();
  return compileMiniC(Source, Name, RequireMain);
}

std::string perfbench::tracedVerify(Tracer &T, const Module &M) {
  Tracer::Span S(T, "ir.verify", M.Name);
  return verifyModuleText(M);
}

void perfbench::tracedPreOpt(Tracer &T, Module &M, const OptOptions &O,
                             FunctionDefinitionCache &Cache, LayerCounts &C) {
  Tracer::Span S(T, "opt.preopt", M.Name);
  for (Function &F : M.Funcs) {
    if (F.IsExternal)
      continue;
    std::string Key = FunctionDefinitionCache::makeKey(F, O);
    if (Cache.lookup(Key, F)) {
      ++C.CacheHits;
      continue;
    }
    runOptimizationPipeline(F, O, &C.PreOpt);
    Cache.insert(Key, F);
    ++C.CacheMisses;
  }
}

ProfileResult perfbench::tracedProfile(Tracer &T, const char *SpanName,
                                       const Module &M,
                                       const std::vector<RunInput> &In,
                                       const RunOptions &Run, LayerCounts &C) {
  Tracer::Span S(T, SpanName, M.Name);
  ProfileResult P;
  for (size_t I = 0; I != In.size(); ++I) {
    RunOptions Opts = Run;
    Opts.Input = In[I].Input;
    Opts.Input2 = In[I].Input2;
    ExecResult R;
    {
      Tracer::Span Run(T, "interp.run", M.Name);
      double Sys = threadSysSeconds();
      R = runProgram(M, Opts);
      C.InterpSys += threadSysSeconds() - Sys;
    }
    if (!R.ok()) {
      P.Failures.push_back("run " + std::to_string(I) + ": " +
                           R.TrapMessage);
      P.RunFailures.push_back({static_cast<unsigned>(I), R.St,
                               R.TrapMessage});
    }
    ++C.ProfileRuns;
    C.IlExecuted += R.Stats.InstrCount;
    P.Data.accumulate(R.Stats);
    P.Outputs.push_back(std::move(R.Output));
  }
  return P;
}

InlineResult perfbench::tracedInline(Tracer &T, Module &M,
                                     const ProfileData &Profile,
                                     const InlineOptions &O, LayerCounts &C) {
  InlineResult R;
  R.SizeBefore = M.size();
  CallGraphOptions GO;
  GO.AssumeExternalsCallBack = O.AssumeExternalsCallBack;
  CallGraph G = [&] {
    Tracer::Span S(T, "callgraph.build", M.Name);
    return buildCallGraph(M, &Profile, GO);
  }();
  {
    Tracer::Span S(T, "core.classify", M.Name);
    R.Classes = classifyCallSites(M, G, Profile, O);
  }
  {
    Tracer::Span S(T, "core.linearize", M.Name);
    R.Linear = linearize(M, G, O);
  }
  {
    Tracer::Span S(T, "core.plan", M.Name);
    R.Plan = planInlining(M, G, R.Classes, R.Linear, O);
  }
  {
    Tracer::Span S(T, "core.expand", M.Name);
    R.Expansions = executeInlinePlan(M, R.Plan);
  }
  if (O.PostInlineOptimize) {
    ModuleRangeFacts Facts;
    RangeContext Ctx;
    const RangeContext *RC = nullptr;
    if (O.PostOpt.Ranges) {
      Tracer::Span S(T, "analysis.range_facts", M.Name);
      Facts = computeModuleRangeFacts(M);
      Ctx.M = &M;
      Ctx.Facts = &Facts;
      RC = &Ctx;
    }
    Tracer::Span S(T, "opt.postopt", M.Name);
    for (const ExpansionRecord &E : R.Expansions)
      runOptimizationPipeline(M.getFunction(E.Caller), O.PostOpt, &C.PostOpt,
                              RC);
  }
  if (O.EliminateDeadFunctions) {
    Tracer::Span S(T, "core.dfe", M.Name);
    R.EliminatedFunctions = eliminateDeadFunctions(M, GO);
  }
  R.SizeAfter = M.size();
  C.SitesExpanded += R.Expansions.size();
  C.SitesRejected += R.Plan.countStatus(ArcStatus::Rejected);
  C.IlGrowth += static_cast<int64_t>(R.SizeAfter) -
                static_cast<int64_t>(R.SizeBefore);
  return R;
}

AnalysisReport perfbench::tracedAnalyze(Tracer &T, const Module &M,
                                        const InlineResult &Inline,
                                        const ProfileData &Profile,
                                        const AnalysisOptions &O,
                                        LayerCounts &C) {
  Tracer::Span S(T, "analysis.analyze", M.Name);
  AnalysisReport All;
  for (const std::string &Rule : analyzerRuleNames()) {
    AnalysisOptions One = O;
    AnalysisOptions Selected;
    parseAnalysisRules(Rule, Selected);
    // Keep the rule only when the caller enabled it.
    One.UninitRead &= Selected.UninitRead;
    One.UnreachableBlock &= Selected.UnreachableBlock;
    One.DeadStore &= Selected.DeadStore;
    One.AuditSafeExpansion &= Selected.AuditSafeExpansion;
    One.AuditCallGraph &= Selected.AuditCallGraph;
    One.AuditWeightConservation &= Selected.AuditWeightConservation;
    One.AuditLinearization &= Selected.AuditLinearization;
    One.GuaranteedTrap &= Selected.GuaranteedTrap;
    One.RangeContradiction &= Selected.RangeContradiction;
    std::string SpanName = "analysis.rule." + Rule;
    Tracer::Span RuleSpan(T, SpanName.c_str(), M.Name);
    AnalysisReport Part = analyzeModule(M, One);
    analyzeInlineInvariants(M, Inline, Profile, One, Part);
    All.Findings.insert(All.Findings.end(), Part.Findings.begin(),
                        Part.Findings.end());
  }
  All.sortFindings();
  C.Findings += All.Findings.size();
  return All;
}

void perfbench::fillPhase(PhaseMetrics &P, const Module &M,
                          const ProfileData &Profile) {
  P.StaticSize = M.size();
  P.AvgInstrs = Profile.getAvgInstrs();
  P.AvgControlTransfers = Profile.getAvgControlTransfers();
  P.AvgCalls = Profile.getAvgDynamicCalls();
  P.AvgExternalCalls = Profile.getAvgExternalCalls();
  P.AvgPointerCalls = Profile.getAvgPointerCalls();
}

void perfbench::fillPhaseClasses(PhaseMetrics &P,
                                 const Classification &Classes) {
  P.DynExternal = Classes.sumDynamic(SiteClass::External);
  P.DynPointer = Classes.sumDynamic(SiteClass::Pointer);
  P.DynUnsafe = Classes.sumDynamic(SiteClass::Unsafe);
  P.DynSafe = Classes.sumDynamic(SiteClass::Safe);
}

void perfbench::reportOptStats(Report &R, const std::string &Stage,
                               const OptStats &S, double Scale,
                               bool WithSeconds) {
  const PassTiming *Passes[] = {
      &S.TailRecursionElimination, &S.CopyPropagation, &S.Sccp,
      &S.ConstantFolding,          &S.Peephole,        &S.JumpOptimization,
      &S.LoopInvariantCodeMotion,  &S.DeadCodeElimination};
  const std::vector<std::string> &Names = optPassNames();
  for (size_t I = 0; I != Names.size(); ++I) {
    std::string Base = "opt." + Stage + "." + Names[I];
    R.set(Base + ".applied",
          static_cast<double>(Passes[I]->Changes) * Scale, "count");
    if (WithSeconds)
      R.set(Base + "_s", Passes[I]->Seconds * Scale, "s");
  }
}
