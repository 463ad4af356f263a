//===- perfbench/Trace.cpp ------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

using namespace perfbench;

namespace {

/// The innermost open span of this thread.
thread_local int CurrentSpan = -1;

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out;
}

} // namespace

Tracer::Tracer() : Origin(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Origin)
      .count();
}

Tracer::Span::Span(Tracer &T, const char *Name, std::string Unit, int Parent)
    : T(T), Id(T.begin(Name, std::move(Unit),
                       Parent < 0 ? CurrentSpan : Parent)),
      Saved(CurrentSpan) {
  CurrentSpan = Id;
}

Tracer::Span::~Span() {
  T.end(Id);
  CurrentSpan = Saved;
}

double Tracer::Span::elapsed() const {
  std::lock_guard<std::mutex> Lock(T.Mutex);
  return T.now() - T.Records[static_cast<size_t>(Id)].Start;
}

int Tracer::begin(const char *Name, std::string Unit, int Parent) {
  std::size_t Key = std::hash<std::thread::id>()(std::this_thread::get_id());
  double Start = now();
  std::lock_guard<std::mutex> Lock(Mutex);
  auto [It, Inserted] =
      ThreadIds.try_emplace(Key, static_cast<unsigned>(ThreadIds.size()));
  Records.push_back({Name, std::move(Unit), Start, Start, Parent, It->second});
  return static_cast<int>(Records.size() - 1);
}

void Tracer::end(int Id) {
  double End = now();
  std::lock_guard<std::mutex> Lock(Mutex);
  Records[static_cast<size_t>(Id)].End = End;
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<std::vector<std::pair<double, double>>> Children(
      Records.size());
  for (const Record &R : Records)
    if (R.Parent >= 0)
      Children[static_cast<size_t>(R.Parent)].push_back({R.Start, R.End});
  std::map<std::string, double> Self;
  for (size_t I = 0; I != Records.size(); ++I) {
    const Record &R = Records[I];
    // Children on pool threads may overlap each other: subtract the
    // union of their intervals, clipped to the parent.
    std::vector<std::pair<double, double>> &C = Children[I];
    std::sort(C.begin(), C.end());
    double Covered = 0.0, Lo = R.Start, Hi = R.Start;
    for (auto [S, E] : C) {
      S = std::clamp(S, R.Start, R.End);
      E = std::clamp(E, R.Start, R.End);
      if (S > Hi) {
        Covered += Hi - Lo;
        Lo = S;
        Hi = E;
      } else {
        Hi = std::max(Hi, E);
      }
    }
    Covered += Hi - Lo;
    Self[R.Name] += std::max(0.0, (R.End - R.Start) - Covered);
  }
  return Self;
}

std::map<std::string, double> Tracer::totalSeconds() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::map<std::string, double> Out;
  for (const Record &R : Records)
    Out[R.Name] += R.End - R.Start;
  return Out;
}

bool Tracer::writeTraceEvents(const std::string &Path) const {
  std::string Out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (size_t I = 0; I != Records.size(); ++I) {
      const Record &R = Records[I];
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf),
                    "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                    "\"dur\": %.3f",
                    R.Thread, R.Start * 1e6, (R.End - R.Start) * 1e6);
      Out += "{\"name\": \"" + jsonEscape(R.Name) + "\", " + Buf +
             ", \"args\": {\"id\": " + std::to_string(I) +
             ", \"parent\": " + std::to_string(R.Parent) +
             ", \"unit\": \"" + jsonEscape(R.Unit) + "\"}}";
      Out += I + 1 == Records.size() ? "\n" : ",\n";
    }
  }
  Out += "]}\n";
  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = std::fwrite(Out.data(), 1, Out.size(), F) == Out.size();
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok || std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}
