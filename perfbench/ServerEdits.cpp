//===- perfbench/ServerEdits.cpp - Edits replayed against a compile server ===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workload server-edits: one CompileServer session (VM engine, a small
/// input set per program, a store in a temporary directory, so the store
/// is saved after every recompile) serving the 12 suite programs plus a
/// multi-unit program set whose shared units several programs declare
/// `extern`. It replays a seeded stream of replace-unit + recompile
/// requests in whole rounds: each round edits every unit once and then
/// reverts every unit once, so the content-addressed cache both misses and
/// hits. A pass is one round followed by a restart: a fresh server over
/// the persisted store rebuilds every program. The invalidation closure,
/// FunctionCache, CacheStore, linkModules and the VM do the work; the
/// walker is bypassed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "Compose.h"
#include "Inputs.h"
#include "Trace.h"

#include "driver/BatchPipeline.h"
#include "driver/CompileServer.h"
#include "driver/Linker.h"
#include "ir/IrPrinter.h"
#include "suite/Workloads.h"
#include "support/Rng.h"
#include "support/Stopwatch.h"
#include "vm/Bytecode.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unistd.h>

using namespace impact;
using namespace perfbench;

namespace {

/// Inputs per program: the server profiles every rebuilt program.
constexpr unsigned kInputsPerProgram = 3;

/// A unit of the session. Its source at version V replaces "@V@" with V
/// and "@SEP@" with a separator character chosen by V.
struct UnitDef {
  std::string Name;
  std::string Template;
  bool Shared = false;
  /// The functions the unit defines and those it declares extern, read
  /// from its source by makeUnit: the benchmark's own view of the
  /// dependency graph, from which it predicts every invalidation.
  std::set<std::string> Defines;
  std::set<std::string> Externs;
};

/// A unit with its Defines and Externs read from its source text. Every
/// MiniC unit here starts a function definition or an extern declaration
/// at column 0 with its return type: `int name(...) {` defines, `extern
/// int name(...);` declares, and no other top-level line names a function.
UnitDef makeUnit(std::string Name, std::string Template, bool Shared) {
  UnitDef U;
  U.Name = std::move(Name);
  U.Template = std::move(Template);
  U.Shared = Shared;
  size_t Pos = 0;
  while (Pos < U.Template.size()) {
    size_t End = U.Template.find('\n', Pos);
    if (End == std::string::npos)
      End = U.Template.size();
    std::string Line = U.Template.substr(Pos, End - Pos);
    Pos = End + 1;
    bool Extern = Line.rfind("extern ", 0) == 0;
    if (Extern)
      Line.erase(0, 7);
    if (Line.rfind("int ", 0) != 0)
      continue;
    size_t Open = Line.find('(');
    if (Open == std::string::npos)
      continue;
    size_t NameEnd = Line.find_last_not_of(' ', Open - 1) + 1;
    size_t NameBegin = Line.find_last_of(" *", NameEnd - 1) + 1;
    std::string Fn = Line.substr(NameBegin, NameEnd - NameBegin);
    if (Extern)
      U.Externs.insert(Fn);
    else if (Line[Line.find_last_not_of(' ')] != ';')
      U.Defines.insert(Fn);
  }
  return U;
}

// The multi-unit set: three shared library units (fmtlib depends on
// mathlib, so a mathlib edit reaches fmtlib's users transitively) and four
// programs that each link a different subset. The helpers keep their
// natural names. is_alpha, is_digit and is_space are also private helpers
// of cccp, eqn and lex, and the server links dependents by name across the
// whole session, so an edit of one of those programs rebuilds the
// multi-unit programs that use the names too.
const char *kMathlib = R"MC(
int scale_factor() { return @V@ % 7 + 2; }
int scale(int v) { return v * scale_factor() + 1; }
int clampi(int v, int lo, int hi) {
  if (v < lo) return lo;
  if (v > hi) return hi;
  return v;
}
int mix(int a, int b) { return (a * 31 + b + @V@) % 65521; }
)MC";

const char *kStrlib = R"MC(
int is_space(int c) { return c == ' ' || c == '\n' || c == '\t'; }
int is_digit(int c) { return c >= '0' && c <= '9'; }
int is_alpha(int c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
int to_lower(int c) {
  if (c >= 'A' && c <= 'Z') return c + 32;
  return c;
}
int word_break(int c) { return is_space(c) || c == @SEP@; }
)MC";

const char *kFmtlib = R"MC(
extern int scale(int v);
extern int clampi(int v, int lo, int hi);
extern int print_int(int v);
extern int putchar(int c);
int emit_num(int v) {
  print_int(clampi(scale(v), 0, 1000000));
  putchar('\n');
  return v;
}
int emit_pair(int a, int b) {
  print_int(a);
  putchar(@SEP@);
  print_int(b);
  putchar('\n');
  return a + b;
}
)MC";

const char *kWordsMain = R"MC(
extern int getchar();
extern int input_avail();
extern int word_break(int c);
extern int is_digit(int c);
extern int emit_num(int v);
extern int emit_pair(int a, int b);
int main() {
  int c;
  int words;
  int digits;
  int inword;
  words = 0;
  digits = 0;
  inword = 0;
  if (input_avail() == 0) return 1;
  c = getchar();
  while (c != -1) {
    if (word_break(c)) {
      inword = 0;
    } else {
      if (inword == 0) {
        words = words + 1;
        inword = 1;
      }
    }
    if (is_digit(c)) digits = digits + 1;
    c = getchar();
  }
  emit_pair(words, digits + @V@);
  emit_num(words);
  return 0;
}
)MC";

const char *kHistMain = R"MC(
extern int getchar();
extern int putchar(int c);
extern int print_int(int v);
extern int input_avail();
extern int is_alpha(int c);
extern int is_digit(int c);
extern int word_break(int c);
extern int mix(int a, int b);
int counts[4];
int classify(int c) {
  if (is_alpha(c)) return 0;
  if (is_digit(c)) return 1;
  if (word_break(c)) return 2;
  return 3;
}
int main() {
  int c;
  int h;
  int i;
  h = @V@;
  if (input_avail() == 0) return 1;
  c = getchar();
  while (c != -1) {
    i = classify(c);
    counts[i] = counts[i] + 1;
    h = mix(h, c);
    c = getchar();
  }
  for (i = 0; i < 4; i++) {
    print_int(counts[i]);
    putchar(' ');
  }
  print_int(h);
  putchar('\n');
  return 0;
}
)MC";

const char *kSumMain = R"MC(
extern int getchar();
extern int input_avail();
extern int emit_num(int v);
extern int emit_pair(int a, int b);
extern int clampi(int v, int lo, int hi);
int main() {
  int c;
  int cur;
  int total;
  int n;
  cur = 0;
  total = 0;
  n = 0;
  if (input_avail() == 0) return 1;
  c = getchar();
  while (c != -1) {
    if (c >= '0' && c <= '9') {
      cur = clampi(cur * 10 + (c - '0'), 0, 100000);
    } else {
      if (cur > 0) {
        total = total + cur;
        n = n + 1;
      }
      cur = 0;
    }
    c = getchar();
  }
  total = total + cur;
  emit_pair(n, total % 65536 + @V@);
  emit_num(n);
  return 0;
}
)MC";

const char *kCaseMain = R"MC(
extern int getchar();
extern int putchar(int c);
extern int print_int(int v);
extern int input_avail();
extern int to_lower(int c);
extern int is_alpha(int c);
int main() {
  int c;
  int n;
  n = @V@;
  if (input_avail() == 0) return 1;
  c = getchar();
  while (c != -1) {
    if (is_alpha(c)) {
      putchar(to_lower(c));
      n = n + 1;
    }
    c = getchar();
  }
  putchar('\n');
  print_int(n);
  putchar('\n');
  return 0;
}
)MC";

struct ProgramDef {
  std::string Name;
  std::vector<std::string> Units;
  std::vector<RunInput> Inputs;
};

/// The session's units and programs.
struct Session {
  std::vector<UnitDef> Units;
  std::vector<ProgramDef> Programs;
  std::map<std::string, size_t> UnitIndex;
};

Session makeSession(uint64_t Seed) {
  Session S;
  for (SuiteProgram &P : makeSeededSuite(Seed, kInputsPerProgram)) {
    // A suite unit's edits append an unused function: a leaf edit that
    // changes no output but recompiles and re-profiles the program.
    S.Units.push_back(makeUnit(
        P.Spec->Name,
        P.Spec->Source + "\nint perfbench_edit() { return @V@; }\n", false));
    S.Programs.push_back({P.Spec->Name, {P.Spec->Name}, std::move(P.Inputs)});
  }
  S.Units.push_back(makeUnit("mathlib", kMathlib, true));
  S.Units.push_back(makeUnit("strlib", kStrlib, true));
  S.Units.push_back(makeUnit("fmtlib", kFmtlib, true));
  S.Units.push_back(makeUnit("words_main", kWordsMain, false));
  S.Units.push_back(makeUnit("hist_main", kHistMain, false));
  S.Units.push_back(makeUnit("sum_main", kSumMain, false));
  S.Units.push_back(makeUnit("case_main", kCaseMain, false));
  Rng R(Seed * 0x9E3779B97F4A7C15ull + 0x5E5E);
  auto Inputs = [&] {
    std::vector<RunInput> In(kInputsPerProgram);
    for (RunInput &I : In)
      I.Input = generateCLikeSource(R, 20 + static_cast<unsigned>(
                                                R.nextBelow(20)));
    return In;
  };
  S.Programs.push_back(
      {"mu_words", {"words_main", "strlib", "fmtlib", "mathlib"}, Inputs()});
  S.Programs.push_back({"mu_hist", {"hist_main", "strlib", "mathlib"},
                        Inputs()});
  S.Programs.push_back({"mu_sum", {"sum_main", "fmtlib", "mathlib"},
                        Inputs()});
  S.Programs.push_back({"mu_case", {"case_main", "strlib"}, Inputs()});
  for (size_t I = 0; I != S.Units.size(); ++I)
    S.UnitIndex[S.Units[I].Name] = I;
  return S;
}

std::string sourceAt(const UnitDef &U, unsigned Version) {
  static const char Seps[] = {' ', ';', ',', ':', '='};
  std::string Out;
  for (size_t I = 0; I < U.Template.size();) {
    if (U.Template.compare(I, 3, "@V@") == 0) {
      Out += std::to_string(Version);
      I += 3;
    } else if (U.Template.compare(I, 5, "@SEP@") == 0) {
      Out += std::to_string(static_cast<int>(Seps[Version % 5]));
      I += 5;
    } else {
      Out += U.Template[I++];
    }
  }
  return Out;
}

/// The units an edit of \p Unit must recompile: it and every unit that
/// declares extern a function of a unit already in the set.
std::vector<std::string> expectedClosure(const Session &S,
                                         const std::string &Unit) {
  std::set<std::string> Closure = {Unit};
  std::vector<std::string> Work = {Unit};
  while (!Work.empty()) {
    const UnitDef &Edited = S.Units[S.UnitIndex.at(Work.back())];
    Work.pop_back();
    for (const UnitDef &U : S.Units) {
      if (Closure.count(U.Name))
        continue;
      for (const std::string &E : U.Externs)
        if (Edited.Defines.count(E)) {
          Closure.insert(U.Name);
          Work.push_back(U.Name);
          break;
        }
    }
  }
  return {Closure.begin(), Closure.end()};
}

/// The seeded request stream, one round at a time. A round edits every
/// unit of the session once, to a version it never had, and then reverts
/// every unit once, to version 0, each half in its own seeded order. The
/// mix therefore follows from the session alone: every unit weighs the
/// same, every edit brings source the content-addressed cache has never
/// seen and every revert brings back source it has. A round ends with the session back at version 0, so the
/// restart after it rebuilds every program from what the store holds.
class Rounds {
public:
  Rounds(size_t Units, uint64_t Seed)
      : R(Seed * 0x9E3779B97F4A7C15ull + 0xED17), Next(Units, 1) {}

  /// The next round's requests: which unit goes to which version.
  std::vector<std::pair<size_t, unsigned>> next() {
    std::vector<std::pair<size_t, unsigned>> Requests;
    for (size_t U : shuffled())
      Requests.push_back({U, Next[U]++});
    for (size_t U : shuffled())
      Requests.push_back({U, 0});
    return Requests;
  }

private:
  std::vector<size_t> shuffled() {
    std::vector<size_t> Order(Next.size());
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.nextBelow(I)]);
    return Order;
  }

  Rng R;
  std::vector<unsigned> Next;
};

ServerOptions serverOptions(const std::string &StoreDir) {
  ServerOptions O;
  O.CacheDir = StoreDir;
  O.Jobs = benchJobs();
  O.Pipeline.Engine = ExecEngine::Vm;
  return O;
}

/// Registers every unit at its version in \p Versions and every program.
void populate(CompileServer &Server, const Session &S,
              const std::vector<unsigned> &Versions, Report &R) {
  for (size_t I = 0; I != S.Units.size(); ++I) {
    std::string Error;
    R.check(Server.addUnit(S.Units[I].Name, sourceAt(S.Units[I], Versions[I]),
                           &Error),
            "addUnit: " + Error);
  }
  for (const ProgramDef &P : S.Programs) {
    std::string Error;
    R.check(Server.defineProgram(P.Name, P.Units, P.Inputs, &Error),
            "defineProgram: " + Error);
  }
}

/// The programs that link any of \p Units.
std::set<std::string> programsOf(const Session &S,
                                 const std::vector<std::string> &Units) {
  std::set<std::string> Out;
  for (const ProgramDef &P : S.Programs)
    for (const std::string &Member : P.Units)
      if (std::binary_search(Units.begin(), Units.end(), Member))
        Out.insert(P.Name);
  return Out;
}

/// Identifies the result the server holds for each program. A rebuild
/// move-assigns a result that was built while the old one was still held,
/// so its output vector owns a different allocation: a program whose
/// identity changed across a request was rebuilt by that request.
std::map<std::string, const void *> heldResults(const CompileServer &Server,
                                                const Session &S) {
  std::map<std::string, const void *> Held;
  for (const ProgramDef &P : S.Programs) {
    const PipelineResult *Res = Server.getResult(P.Name);
    Held[P.Name] = Res ? Res->OutputsAfter.data() : nullptr;
  }
  return Held;
}

std::set<std::string>
rebuiltPrograms(const std::map<std::string, const void *> &Before,
                const std::map<std::string, const void *> &After) {
  std::set<std::string> Out;
  for (const auto &[Name, Identity] : After)
    if (Before.at(Name) != Identity)
      Out.insert(Name);
  return Out;
}

/// The program results the server holds pass the per-program checks.
void checkPrograms(Report &R, const CompileServer &Server, const Session &S,
                   const std::set<std::string> &Which) {
  for (const ProgramDef &P : S.Programs) {
    if (!Which.count(P.Name))
      continue;
    const PipelineResult *Res = Server.getResult(P.Name);
    if (!Res) {
      R.check(false, P.Name + ": no result");
      continue;
    }
    for (const std::string &Problem :
         checkOutcome(outcomeOf(P.Name, P.Inputs, *Res)))
      R.check(false, Problem);
  }
}

/// The layer calls the server makes inside a request but reports no time
/// for: the frontend on each touched unit, the linker on each rebuilt
/// multi-unit program, and the VM's bytecode compile of each rebuilt
/// program. The traced run repeats them after the request, outside its
/// timing, so these figures are the benchmark's own re-run of the same
/// calls on the same inputs.
struct Replay {
  std::map<std::string, Module> Modules;
  LayerCounts Counts;

  /// Compiles every unit once, untraced, so that a replayed link always
  /// has all of its members.
  void prime(const Session &S, const std::vector<unsigned> &Versions) {
    for (size_t I = 0; I != S.Units.size(); ++I)
      Modules[S.Units[I].Name] =
          compileMiniC(sourceAt(S.Units[I], Versions[I]), S.Units[I].Name,
                       /*RequireMain=*/false)
              .M;
  }

  void run(Tracer &T, const Session &S, const std::vector<unsigned> &Versions,
           const CompileServer &Server,
           const std::vector<std::string> &Touched,
           const std::set<std::string> &Rebuilt, Report &R) {
    Tracer::Span All(T, "perfbench.replay");
    for (const std::string &Name : Touched) {
      size_t I = S.UnitIndex.at(Name);
      CompilationResult C = tracedCompile(T, sourceAt(S.Units[I], Versions[I]),
                                          Name, Counts, /*RequireMain=*/false);
      R.check(C.Ok, Name + ": replayed compile failed");
      Modules[Name] = std::move(C.M);
    }
    for (const ProgramDef &P : S.Programs) {
      if (!Rebuilt.count(P.Name))
        continue;
      if (P.Units.size() > 1) {
        std::vector<Module> Members;
        for (const std::string &U : P.Units)
          Members.push_back(Modules[U]);
        Tracer::Span Link(T, "linker.link", P.Name);
        R.check(linkModules(std::move(Members), P.Name).Ok,
                P.Name + ": replayed link failed");
      }
      if (const PipelineResult *Res = Server.getResult(P.Name)) {
        Tracer::Span C(T, "vm.bytecode_compile", P.Name);
        compileToBytecode(Res->FinalModule);
      }
    }
  }
};

/// A fresh runBatchPipeline compile of the final sources must give every
/// program's module, profile and metrics the server holds.
void checkAgainstFresh(Report &R, const CompileServer &Server,
                       const Session &S,
                       const std::vector<unsigned> &Versions) {
  std::vector<BatchJob> Jobs;
  for (const ProgramDef &P : S.Programs) {
    BatchJob J;
    J.Name = P.Name;
    J.Inputs = P.Inputs;
    J.Options = serverOptions("").Pipeline;
    if (P.Units.size() == 1) {
      size_t I = S.UnitIndex.at(P.Units[0]);
      J.Source = sourceAt(S.Units[I], Versions[I]);
    } else {
      std::vector<Module> Members;
      for (const std::string &U : P.Units) {
        size_t I = S.UnitIndex.at(U);
        CompilationResult C = compileMiniC(sourceAt(S.Units[I], Versions[I]),
                                           U, /*RequireMain=*/false);
        R.check(C.Ok, U + ": fresh compile failed");
        Members.push_back(std::move(C.M));
      }
      LinkResult L = linkModules(std::move(Members), P.Name);
      R.check(L.Ok, P.Name + ": fresh link failed");
      J.PrecompiledModule = std::move(L.M);
      J.HasModule = true;
    }
    Jobs.push_back(std::move(J));
  }
  BatchOptions B;
  B.Jobs = benchJobs();
  BatchResult Fresh = runBatchPipeline(Jobs, B);
  for (size_t I = 0; I != Jobs.size(); ++I) {
    const PipelineResult &F = Fresh.Results[I];
    const PipelineResult *Res = Server.getResult(Jobs[I].Name);
    R.check(F.Ok && Res && printModule(F.FinalModule) ==
                               printModule(Res->FinalModule) &&
                F.ProfileBefore == Res->ProfileBefore &&
                F.Before == Res->Before && F.After == Res->After &&
                F.OutputsAfter == Res->OutputsAfter,
            Jobs[I].Name + ": server result differs from a fresh compile");
  }
}

/// How a round's requests fan out, from the benchmark's own map: a leaf
/// request rebuilds one program; a shared-unit request rebuilds every
/// program that links the library unit; a name-collision request edits a
/// unit that only one program links but that defines a function other
/// units declare extern, so it rebuilds those units' programs too.
std::string describeRound(const Session &S) {
  unsigned Leaf = 0, Shared = 0, Collision = 0;
  for (const UnitDef &U : S.Units) {
    if (U.Shared)
      ++Shared;
    else if (programsOf(S, expectedClosure(S, U.Name)).size() > 1)
      ++Collision;
    else
      ++Leaf;
  }
  // Each unit is edited once and reverted once per round.
  return std::to_string(2 * S.Units.size()) + " requests (" +
         std::to_string(2 * Leaf) + " leaf, " + std::to_string(2 * Shared) +
         " shared-unit, " + std::to_string(2 * Collision) +
         " name-collision) and one restart";
}

} // namespace

int perfbench::runServerEdits(const Args &A, Report &R) {
  Session S = makeSession(A.Seed);
  Rounds Stream(S.Units.size(), A.Seed);
  std::vector<unsigned> Versions(S.Units.size(), 0);
  std::string StoreDir = A.WorkDir + "/store-" + std::to_string(::getpid());
  std::filesystem::remove_all(StoreDir);
  RemoveOnExit Cleanup(StoreDir);
  std::set<std::string> AllPrograms;
  for (const ProgramDef &P : S.Programs)
    AllPrograms.insert(P.Name);

  Tracer T;
  Replay Layers;
  // The cold build: a first server over an empty store.
  auto Server = std::make_unique<CompileServer>(serverOptions(StoreDir));
  populate(*Server, S, Versions, R);
  RecompileStats Cold = Server->recompile("*");
  R.set("setup_s", sinceStart(), "s");
  R.check(Cold.RecompiledPrograms == S.Programs.size(),
          "cold build did not build every program");
  checkPrograms(R, *Server, S, AllPrograms);
  std::fprintf(stderr, "perfbench: server-edits round: %s\n",
               describeRound(S).c_str());
  if (A.Trace)
    Layers.prime(S, Versions);

  // Only the server's calls are timed: a request is replaceUnit +
  // recompile, a restart is a fresh server's construction, registration
  // and rebuild. The checks and the traced run's replay lie outside.
  std::vector<double> PassTimes, EditMs, RestartS, LoadS, SaveS;
  double RecompileS = 0, Touched = 0, Rebuilt = 0, PersistentHits = 0;
  unsigned Requests = 0;
  PipelineStats ServerStats;
  uint64_t ProfileRuns = 0;
  double IlExecuted = 0;
  Stopwatch Clock;
  do {
    double PassTime = 0;
    for (auto [U, Version] : Stream.next()) {
      const std::string &Unit = S.Units[U].Name;
      std::map<std::string, const void *> Held = heldResults(*Server, S);
      RecompileStats Stats;
      {
        std::optional<Tracer::Span> Req;
        if (A.Trace)
          Req.emplace(T, "server.request", Unit);
        Stopwatch Latency;
        std::string Error;
        R.check(Server->replaceUnit(Unit, sourceAt(S.Units[U], Version),
                                    &Error),
                "replaceUnit: " + Error);
        {
          std::optional<Tracer::Span> Rec;
          if (A.Trace)
            Rec.emplace(T, "server.recompile", Unit);
          Stopwatch RecompileTime;
          Stats = Server->recompile("*");
          RecompileS += RecompileTime.seconds();
        }
        double Seconds = Latency.seconds();
        PassTime += Seconds;
        EditMs.push_back(Seconds * 1e3);
      }
      Versions[U] = Version;
      ++Requests;
      R.addAttempted(1);
      R.addFailed(Stats.FailedPrograms ? 1 : 0);
      Touched += static_cast<double>(Stats.TouchedUnits);
      Rebuilt += static_cast<double>(Stats.RecompiledPrograms);

      std::vector<std::string> Expected = expectedClosure(S, Unit);
      std::set<std::string> ExpectedPrograms = programsOf(S, Expected);
      std::set<std::string> RebuiltNow =
          rebuiltPrograms(Held, heldResults(*Server, S));
      R.check(Stats.TouchedUnitNames == Expected,
              Unit + " edit: touched units differ from the closure");
      R.check(RebuiltNow == ExpectedPrograms &&
                  Stats.RecompiledPrograms == ExpectedPrograms.size(),
              Unit + " edit: rebuilt programs differ from the closure");
      checkPrograms(R, *Server, S, ExpectedPrograms);
      if (A.Trace) {
        // The server's own per-program layer times of this request.
        for (const ProgramDef &P : S.Programs) {
          if (!RebuiltNow.count(P.Name))
            continue;
          const PipelineResult *Res = Server->getResult(P.Name);
          ServerStats.merge(Res->Stats);
          double Runs = static_cast<double>(P.Inputs.size());
          ProfileRuns += 2 * P.Inputs.size();
          IlExecuted += (Res->Before.AvgInstrs + Res->After.AvgInstrs) * Runs;
        }
        Layers.run(T, S, Versions, *Server, Stats.TouchedUnitNames,
                   RebuiltNow, R);
      }
    }

    // Restart. The old server saves the store as it shuts down; a fresh
    // one loads it and rebuilds every program.
    {
      std::optional<Tracer::Span> Shutdown;
      if (A.Trace)
        Shutdown.emplace(T, "cache_store.save", "session");
      Stopwatch SaveTime;
      Server.reset();
      SaveS.push_back(SaveTime.seconds());
    }
    {
      std::optional<Tracer::Span> Restart;
      if (A.Trace)
        Restart.emplace(T, "server.restart", "session");
      Stopwatch RestartTime;
      {
        std::optional<Tracer::Span> Load;
        if (A.Trace)
          Load.emplace(T, "cache_store.load", "session");
        Stopwatch LoadTime;
        Server = std::make_unique<CompileServer>(serverOptions(StoreDir));
        LoadS.push_back(LoadTime.seconds());
      }
      // The counter carries on from the store's earlier sessions: the
      // restart's own hits are what its rebuild adds.
      uint64_t HitsAtLoad = Server->getCacheStats().PersistentHits;
      populate(*Server, S, Versions, R);
      RecompileStats Stats = Server->recompile("*");
      RestartS.push_back(RestartTime.seconds());
      PassTime += RestartS.back();
      PersistentHits += static_cast<double>(
          Server->getCacheStats().PersistentHits - HitsAtLoad);
      R.addAttempted(1);
      R.addFailed(Stats.FailedPrograms ? 1 : 0);
      R.check(Server->getInitialCacheStatus() == CacheLoadStatus::Loaded,
              "restart did not load the store");
      R.check(Stats.RecompiledPrograms == S.Programs.size(),
              "restart did not rebuild every program");
    }
    PassTimes.push_back(PassTime);
    checkPrograms(R, *Server, S, AllPrograms);
  } while (Clock.seconds() < A.Seconds);

  checkAgainstFresh(R, *Server, S, Versions);
  double Il = 0, Calls = 0, Static = 0;
  for (const ProgramDef &P : S.Programs) {
    const PipelineResult *Res = Server->getResult(P.Name);
    if (!Res)
      continue;
    std::vector<std::string> Problems;
    EngineRuns Runs = runBothEngines(Res->FinalModule, P.Inputs, Problems);
    for (const std::string &Problem : Problems)
      R.check(false, Problem);
    R.check(Runs.Outputs == Res->OutputsAfter,
            P.Name + ": engine outputs differ from the server's");
    Il += Res->After.AvgInstrs;
    Calls += Res->After.AvgCalls;
    Static += static_cast<double>(Res->After.StaticSize);
  }
  R.set("dyn_il_per_run", Il, "count");
  R.set("dyn_calls_per_run", Calls, "count");
  R.set("static_il", Static, "count");
  if (!A.Trace) {
    R.set("pass_s", median(PassTimes), "s");
    return 0;
  }

  double PerRequest = 1.0 / Requests;
  double Passes = static_cast<double>(PassTimes.size());
  std::map<std::string, double> Tot = T.totalSeconds();
  R.set("trace.pass_s", median(PassTimes), "s");
  R.set("server.edit_p50_ms", median(EditMs), "ms");
  R.set("server.edit_p95_ms", percentile(EditMs, 95), "ms");
  R.set("server.restart_s", median(RestartS), "s");
  R.set("server.touched_units", Touched * PerRequest, "count");
  R.set("server.recompiled_programs", Rebuilt * PerRequest, "count");
  R.set("server.recompile_s", RecompileS * PerRequest, "s");
  R.set("cache_store.save_s", median(SaveS), "s");
  R.set("cache_store.load_s", median(LoadS), "s");
  std::error_code EC;
  R.set("cache_store.bytes",
        static_cast<double>(
            std::filesystem::file_size(getCacheStorePath(StoreDir), EC)),
        "B");
  R.set("function_cache.persistent_hits", PersistentHits / Passes, "count");
  // The server's own figures for the programs its requests rebuilt: the
  // pre-opt and both profiles of each pipeline, run under the VM (whose
  // time includes compiling the bytecode).
  double VmS = ServerStats.ProfileSeconds + ServerStats.ReProfileSeconds;
  R.set("opt.preopt_s", ServerStats.PreOptSeconds * PerRequest, "s");
  reportOptStats(R, "preopt", ServerStats.PreOpt, PerRequest,
                 /*WithSeconds=*/true);
  R.set("profile.measure_s", ServerStats.ProfileSeconds * PerRequest, "s");
  R.set("profile.reprofile_s", ServerStats.ReProfileSeconds * PerRequest,
        "s");
  R.set("profile.runs", static_cast<double>(ProfileRuns) * PerRequest,
        "count");
  R.set("profile.il_executed", IlExecuted * PerRequest, "count");
  R.set("vm.run_s", VmS * PerRequest, "s");
  R.set("vm.il_per_s", VmS > 0 ? IlExecuted / VmS : 0, "1/s");
  R.set("driver.function_cache.hits",
        static_cast<double>(ServerStats.CacheHits) * PerRequest, "count");
  R.set("driver.function_cache.misses",
        static_cast<double>(ServerStats.CacheMisses) * PerRequest, "count");
  // The benchmark's re-run of the calls the server reports no time for.
  double FrontS = Tot["frontend.compile"];
  R.set("frontend.compile_s", FrontS * PerRequest, "s");
  R.set("frontend.bytes_per_s",
        FrontS > 0 ? static_cast<double>(Layers.Counts.SourceBytes) / FrontS
                   : 0,
        "B/s");
  R.set("linker.link_s", Tot["linker.link"] * PerRequest, "s");
  R.set("vm.bytecode_compile_s", Tot["vm.bytecode_compile"] * PerRequest,
        "s");
  std::string Path = A.WorkDir + "/trace-server-edits-" +
                     std::to_string(A.Seed) + ".json";
  R.check(T.writeTraceEvents(Path), "cannot write " + Path);
  return 0;
}
