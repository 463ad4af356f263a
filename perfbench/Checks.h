//===- perfbench/Checks.h - Correctness checks shared by the workloads ----===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks against computations made apart from the program (the wc, tee,
/// cmp and grep oracles) and against properties inline expansion must
/// have. Each returns the problems it found as messages; the caller
/// records them in the run's Report on the main thread.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "driver/Pipeline.h"

#include <string>
#include <vector>

namespace perfbench {

/// One program's §4 outcome, whichever way it was produced.
struct Outcome {
  std::string Name;
  const std::vector<impact::RunInput> *Inputs = nullptr;
  const std::vector<std::string> *OutputsBefore = nullptr;
  const std::vector<std::string> *OutputsAfter = nullptr;
  impact::PhaseMetrics Before;
  impact::PhaseMetrics After;
  const impact::InlineResult *Inline = nullptr;
};

Outcome outcomeOf(const std::string &Name,
                  const std::vector<impact::RunInput> &Inputs,
                  const impact::PipelineResult &P);

/// Inlining preserved every output; the oracle agrees before and after;
/// dynamic calls did not grow; zero expansions left the dynamic counts
/// unchanged; the planner's projected size kept within its budget.
std::vector<std::string> checkOutcome(const Outcome &O);

/// What a module's runs gave, identical under both engines.
struct EngineRuns {
  impact::ProfileData Profile;
  std::vector<std::string> Outputs;
};

/// Runs \p M on every input under the walker and the VM and reports any
/// difference in status, output, IL count or call count; the profile is
/// the VM's.
EngineRuns runBothEngines(const impact::Module &M,
                            const std::vector<impact::RunInput> &Inputs,
                            std::vector<std::string> &Problems);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
