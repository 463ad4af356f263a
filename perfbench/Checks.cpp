//===- perfbench/Checks.cpp -----------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "Inputs.h"

#include "vm/Bytecode.h"
#include "vm/Vm.h"

using namespace impact;
using namespace perfbench;

Outcome perfbench::outcomeOf(const std::string &Name,
                             const std::vector<RunInput> &Inputs,
                             const PipelineResult &P) {
  Outcome O;
  O.Name = Name;
  O.Inputs = &Inputs;
  O.OutputsBefore = &P.OutputsBefore;
  O.OutputsAfter = &P.OutputsAfter;
  O.Before = P.Before;
  O.After = P.After;
  O.Inline = &P.Inline;
  return O;
}

std::vector<std::string> perfbench::checkOutcome(const Outcome &O) {
  std::vector<std::string> Problems;
  auto Fail = [&](const std::string &What) {
    Problems.push_back(O.Name + ": " + What);
  };
  size_t N = O.Inputs->size();
  if (O.OutputsBefore->size() != N || O.OutputsAfter->size() != N) {
    Fail("missing outputs");
    return Problems;
  }
  for (size_t I = 0; I != N; ++I) {
    const std::string &Before = (*O.OutputsBefore)[I];
    const std::string &After = (*O.OutputsAfter)[I];
    if (Before != After)
      Fail("run " + std::to_string(I) + ": output changed by inlining");
    std::string Expected;
    if (oracleOutput(O.Name, (*O.Inputs)[I], Expected) &&
        (Before != Expected || After != Expected))
      Fail("run " + std::to_string(I) + ": output differs from the oracle");
  }
  if (O.After.AvgCalls > O.Before.AvgCalls)
    Fail("dynamic calls grew after inlining");
  if (O.Inline->Expansions.empty() &&
      (O.After.AvgInstrs != O.Before.AvgInstrs ||
       O.After.AvgCalls != O.Before.AvgCalls ||
       O.After.AvgControlTransfers != O.Before.AvgControlTransfers ||
       O.After.AvgExternalCalls != O.Before.AvgExternalCalls ||
       O.After.AvgPointerCalls != O.Before.AvgPointerCalls))
    Fail("no expansion, yet the dynamic counts changed");
  const InlinePlan &Plan = O.Inline->Plan;
  if (Plan.ProjectedProgramSize > Plan.ProgramSizeBudget)
    Fail("planned size " + std::to_string(Plan.ProjectedProgramSize) +
         " exceeds the budget " + std::to_string(Plan.ProgramSizeBudget));
  return Problems;
}

EngineRuns perfbench::runBothEngines(const Module &M,
                                       const std::vector<RunInput> &Inputs,
                                       std::vector<std::string> &Problems) {
  EngineRuns T;
  VmProgram P = compileToBytecode(M);
  for (size_t I = 0; I != Inputs.size(); ++I) {
    RunOptions Opts;
    Opts.Input = Inputs[I].Input;
    Opts.Input2 = Inputs[I].Input2;
    ExecResult W = runProgram(M, Opts);
    ExecResult V = runProgramVm(P, Opts);
    std::string Run = M.Name + " run " + std::to_string(I) + ": ";
    if (!W.ok() || !V.ok())
      Problems.push_back(Run + "did not exit normally");
    if (W.Output != V.Output || W.ExitCode != V.ExitCode)
      Problems.push_back(Run + "walker and VM outputs differ");
    if (W.Stats.InstrCount != V.Stats.InstrCount ||
        W.Stats.DynamicCalls != V.Stats.DynamicCalls ||
        W.Stats.ControlTransfers != V.Stats.ControlTransfers)
      Problems.push_back(Run + "walker and VM counts differ");
    T.Profile.accumulate(V.Stats);
    T.Outputs.push_back(std::move(V.Output));
  }
  return T;
}
