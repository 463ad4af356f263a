//===- perfbench/Compose.h - The pipeline, one layer call at a time -------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced runs rebuild the library's composite entry points
/// (runPipeline, runInlineExpansion, the analyzer) from the public layer
/// calls they are made of, with one span around each call. The
/// composition must give the same modules and metrics as the composite
/// call; each workload checks that it does.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMPOSE_H
#define PERFBENCH_COMPOSE_H

#include "Trace.h"

#include "analysis/Analyzer.h"
#include "driver/Pipeline.h"

#include <string>
#include <vector>

namespace impact {
class FunctionDefinitionCache;
}

namespace perfbench {

/// Counters the composed layers add up across units.
struct LayerCounts {
  impact::OptStats PreOpt;
  impact::OptStats PostOpt;
  uint64_t ProfileRuns = 0;
  uint64_t IlExecuted = 0;
  double InterpSys = 0.0;
  uint64_t SourceBytes = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t SitesExpanded = 0;
  uint64_t SitesRejected = 0;
  int64_t IlGrowth = 0;
  uint64_t Findings = 0;

  void merge(const LayerCounts &O);
};

/// compileMiniC in a "frontend.compile" span.
impact::CompilationResult tracedCompile(Tracer &T, const std::string &Source,
                                        const std::string &Name,
                                        LayerCounts &C,
                                        bool RequireMain = true);

/// verifyModuleText in an "ir.verify" span.
std::string tracedVerify(Tracer &T, const impact::Module &M);

/// The pipeline's per-function pre-opt with the definition cache
/// (driver/Pipeline.cpp's runPreOpt), in an "opt.preopt" span.
void tracedPreOpt(Tracer &T, impact::Module &M, const impact::OptOptions &O,
                  impact::FunctionDefinitionCache &Cache, LayerCounts &C);

/// profileProgram with the walker and full instrumentation, one
/// "interp.run" span per input inside a \p SpanName span.
impact::ProfileResult tracedProfile(Tracer &T, const char *SpanName,
                                    const impact::Module &M,
                                    const std::vector<impact::RunInput> &In,
                                    const impact::RunOptions &Run,
                                    LayerCounts &C);

/// runInlineExpansion, one layer call per span.
impact::InlineResult tracedInline(Tracer &T, impact::Module &M,
                                  const impact::ProfileData &Profile,
                                  const impact::InlineOptions &O,
                                  LayerCounts &C);

/// analyzeModule + analyzeInlineInvariants, one call per enabled rule
/// ("analysis.rule.<rule>" spans) inside an "analysis.analyze" span.
impact::AnalysisReport tracedAnalyze(Tracer &T, const impact::Module &M,
                                     const impact::InlineResult &Inline,
                                     const impact::ProfileData &Profile,
                                     const impact::AnalysisOptions &O,
                                     LayerCounts &C);

/// The metrics one profile gives a phase (driver/Pipeline.cpp).
void fillPhase(impact::PhaseMetrics &P, const impact::Module &M,
               const impact::ProfileData &Profile);
void fillPhaseClasses(impact::PhaseMetrics &P,
                      const impact::Classification &Classes);

/// Adds the opt.<Stage>.<pass>.applied (and, for pre-opt, _s) metrics.
class Report;
void reportOptStats(Report &R, const std::string &Stage,
                    const impact::OptStats &S, double Scale,
                    bool WithSeconds);

} // namespace perfbench

#endif // PERFBENCH_COMPOSE_H
