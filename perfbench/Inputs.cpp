//===- perfbench/Inputs.cpp -----------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "suite/Workloads.h"
#include "support/Rng.h"

#include <stdexcept>

using namespace impact;
using namespace perfbench;

namespace {

unsigned below(Rng &R, unsigned N) {
  return static_cast<unsigned>(R.nextBelow(N));
}

/// The per-program base seed and run stride of suite/Programs*.cpp, offset
/// by the benchmark's seed.
Rng runRng(uint64_t Base, uint64_t Stride, uint64_t Seed, unsigned Run) {
  return Rng(Base + Run * Stride + Seed * 0x9E3779B97F4A7C15ull);
}

// grep's buffers (GrepSource): the 64K text buffer is filled 4096 bytes
// at a time while another block still fits, and a line keeps at most
// max - 1 characters.
constexpr size_t kGrepText = 65536;
constexpr size_t kGrepBlock = 4096;

size_t grepLoadedLength(size_t InputSize) {
  size_t Len = 0;
  size_t N = std::min(kGrepBlock, InputSize);
  while (N > 0) {
    Len += N;
    if (Len + kGrepBlock > kGrepText)
      break;
    N = std::min(kGrepBlock, InputSize - Len);
  }
  return Len;
}

/// One line of the loaded text, truncated like grep's next_line. False at
/// the end of the text.
bool grepNextLine(const std::string &Text, size_t &Cursor, size_t Max,
                  std::string &Line) {
  if (Cursor >= Text.size())
    return false;
  Line.clear();
  while (Cursor < Text.size() && Text[Cursor] != '\n') {
    if (Line.size() < Max - 1)
      Line += Text[Cursor];
    ++Cursor;
  }
  ++Cursor;
  return true;
}

// A regular-expression matcher for the . * ^ $ subset, written from the
// usual definitions: '.' matches any character, 'c*' any run of c
// (including none), '^' anchors at the line start and '$' at its end.
bool matchHere(const char *Pat, const char *Text);

bool matchStar(char C, const char *Pat, const char *Text) {
  // Zero copies of C first, then one more at a time.
  for (;;) {
    if (matchHere(Pat, Text))
      return true;
    if (*Text == '\0' || (C != '.' && *Text != C))
      return false;
    ++Text;
  }
}

bool matchHere(const char *Pat, const char *Text) {
  if (Pat[0] == '\0')
    return true;
  if (Pat[1] == '*')
    return matchStar(Pat[0], Pat + 2, Text);
  if (Pat[0] == '$' && Pat[1] == '\0')
    return *Text == '\0';
  if (*Text != '\0' && (Pat[0] == '.' || Pat[0] == *Text))
    return matchHere(Pat + 1, Text + 1);
  return false;
}

bool matchLine(const std::string &Pat, const std::string &Line) {
  if (!Pat.empty() && Pat[0] == '^')
    return matchHere(Pat.c_str() + 1, Line.c_str());
  const char *Text = Line.c_str();
  do {
    if (matchHere(Pat.c_str(), Text))
      return true;
  } while (*Text++ != '\0');
  return false;
}

std::string grepOracle(const std::string &Input) {
  std::string Text = Input.substr(0, grepLoadedLength(Input.size()));
  size_t Cursor = 0;
  std::string Pattern, Line, Out;
  grepNextLine(Text, Cursor, 128, Pattern);
  bool Invert = false, CountOnly = false;
  if (Pattern.size() >= 2 && Pattern[0] == '-') {
    Invert = Pattern[1] == 'v';
    CountOnly = Pattern[1] == 'c';
    if (!Invert && !CountOnly)
      Out += "grep: bad option\n";
    grepNextLine(Text, Cursor, 128, Pattern);
  }
  long Matches = 0;
  while (grepNextLine(Text, Cursor, 512, Line)) {
    if (matchLine(Pattern, Line) != Invert) {
      if (!CountOnly)
        Out += Line + "\n";
      ++Matches;
    }
  }
  return Out + std::to_string(Matches) + "\n";
}

std::string wcOracle(const std::string &In) {
  long Lines = 0, Words = 0, Chars = 0, Longest = 0, LineLen = 0;
  bool InWord = false;
  for (char C : In) {
    ++Chars;
    if (C == '\n') {
      ++Lines;
      Longest = std::max(Longest, LineLen);
      LineLen = 0;
    } else {
      ++LineLen;
    }
    if (C == ' ' || C == '\n' || C == '\t') {
      InWord = false;
    } else if (!InWord) {
      ++Words;
      InWord = true;
    }
  }
  return std::to_string(Lines) + " " + std::to_string(Words) + " " +
         std::to_string(Chars) + " " + std::to_string(Longest) + "\n";
}

std::string teeOracle(const std::string &In) {
  std::string Out;
  for (char C : In)
    Out += std::string(2, C);
  return Out + std::to_string(In.size()) + "\n";
}

std::string cmpOracle(const std::string &A, const std::string &B) {
  // Position of the first differing byte (or of the shorter stream's end)
  // and the line it lies on.
  size_t Pos = 0;
  long Line = 1;
  while (Pos < A.size() && Pos < B.size() && A[Pos] == B[Pos]) {
    if (A[Pos] == '\n')
      ++Line;
    ++Pos;
  }
  std::string P = std::to_string(Pos + 1);
  if (Pos < A.size() && Pos < B.size())
    return "differ: char " + P + "\nline " + std::to_string(Line) + "\n";
  if (A.size() != B.size())
    return "eof differ: char " + P + "\n";
  return "equal: chars " + std::to_string(Pos) + "\n";
}

/// Inputs of run \p I of \p Runs of \p Spec under \p Seed.
RunInput makeSeededInput(const BenchmarkSpec &Spec, uint64_t Seed, unsigned I,
                         unsigned Runs) {
  // Sizes are stratified over the runs: run I draws from one of Runs
  // equal slices of each size range, the slices dealt out in a seeded
  // rotation. A seed then changes the content and the order of the inputs
  // but hardly their total size, so run-to-run spread measures the
  // program, not the luck of the draw.
  unsigned Slot =
      (I + static_cast<unsigned>(Rng(Seed).nextBelow(Runs))) % Runs;
  auto size = [&](Rng &R, unsigned Range) {
    unsigned Lo = Range * Slot / Runs, Hi = Range * (Slot + 1) / Runs;
    return Lo + (Hi > Lo ? below(R, Hi - Lo) : 0);
  };
  const std::string &N = Spec.Name;
  RunInput In;
  if (N == "cccp") {
    Rng R = runRng(0xCC01, 977, Seed, I);
    In.Input = generateCLikeSource(R, 60 + size(R, 160));
  } else if (N == "cmp") {
    Rng R = runRng(0xC3B0, 613, Seed, I);
    In.Input = generateWordText(R, 500 + size(R, 400));
    // Table 1: identical, similar and dissimilar pairs in turn.
    if (I % 3 == 0)
      In.Input2 = In.Input;
    else
      In.Input2 = mutateText(R, In.Input, I % 3 == 1 ? 2 : 40);
  } else if (N == "compress") {
    Rng R = runRng(0xC0DE, 389, Seed, I);
    In.Input = generateCompressibleText(R, 3000 + size(R, 3000));
  } else if (N == "eqn") {
    Rng R = runRng(0xE4E4, 211, Seed, I);
    In.Input = generateEquations(R, 120 + size(R, 240));
  } else if (N == "espresso") {
    Rng R = runRng(0xE5E5, 449, Seed, I);
    unsigned Vars = 8 + size(R, 9);
    In.Input = generateTruthTable(R, Vars, 28 + size(R, 32));
  } else if (N == "grep") {
    Rng R = runRng(0x63E9, 733, Seed, I);
    In.Input = generateGrepInput(R, 160 + size(R, 160));
  } else if (N == "lex") {
    Rng R = runRng(0x1E71, 997, Seed, I);
    In.Input = generateCLikeSource(R, 500 + size(R, 400));
  } else if (N == "make") {
    Rng R = runRng(0x4A6B, 523, Seed, I);
    In.Input = generateMakefile(R, 24 + size(R, 32));
  } else if (N == "tar") {
    Rng R = runRng(0x7A7A, 431, Seed, I);
    In.Input = generateArchiveInput(R, 12 + size(R, 20));
  } else if (N == "tee") {
    Rng R = runRng(0x7EE0, 389, Seed, I);
    In.Input = generateWordText(R, 300 + size(R, 300));
  } else if (N == "wc") {
    Rng R = runRng(0x3C3C, 617, Seed, I);
    In.Input = generateCLikeSource(R, 120 + size(R, 200));
  } else if (N == "yacc") {
    Rng R = runRng(0x9ACC, 271, Seed, I);
    In.Input = generateGrammar(R, 2 + size(R, 4));
  } else {
    throw std::runtime_error("no input generator for '" + N + "'");
  }
  return In;
}

} // namespace

std::vector<SuiteProgram> perfbench::makeSeededSuite(uint64_t Seed,
                                                     unsigned Runs) {
  std::vector<SuiteProgram> Suite;
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    SuiteProgram P;
    P.Spec = &Spec;
    unsigned N = Runs ? Runs : Spec.DefaultRuns;
    for (unsigned I = 0; I != N; ++I)
      P.Inputs.push_back(makeSeededInput(Spec, Seed, I, N));
    Suite.push_back(std::move(P));
  }
  return Suite;
}

bool perfbench::oracleOutput(const std::string &Name, const RunInput &In,
                             std::string &Out) {
  if (Name == "wc")
    Out = wcOracle(In.Input);
  else if (Name == "tee")
    Out = teeOracle(In.Input);
  else if (Name == "cmp")
    Out = cmpOracle(In.Input, In.Input2);
  else if (Name == "grep")
    Out = grepOracle(In.Input);
  else
    return false;
  return true;
}
