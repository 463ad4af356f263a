//===- perfbench/Inputs.h - Seeded inputs of the suite ---------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's inputs: the 12 suite programs with inputs drawn from
/// the suite/Workloads.h generators in Table 1's shapes and run counts,
/// seeded by the benchmark's --seed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "profile/Profiler.h"
#include "suite/Suite.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SuiteProgram {
  const impact::BenchmarkSpec *Spec = nullptr;
  std::vector<impact::RunInput> Inputs;
};

/// The suite in the paper's order, each program with \p Runs inputs
/// (0 = its Table 1 run count).
std::vector<SuiteProgram> makeSeededSuite(uint64_t Seed, unsigned Runs = 0);

/// The expected output of suite program \p Name on \p In, computed by the
/// benchmark's own code from the input alone (wc, tee, cmp and grep).
/// False when the benchmark has no oracle for \p Name.
bool oracleOutput(const std::string &Name, const impact::RunInput &In,
                  std::string &Out);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
