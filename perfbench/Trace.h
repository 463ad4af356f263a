//===- perfbench/Trace.h - In-memory spans of the traced run ---------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around each public library call of the
/// traced run: name, start, end, parent span and unit (program or unit
/// name). Spans stay in memory and are written once, at the end of the
/// run, as a Chrome trace-event JSON file. A layer's self time is its
/// span minus the part of it that its child spans cover.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
  struct Record {
    std::string Name;
    std::string Unit;
    double Start = 0.0;
    double End = 0.0;
    int Parent = -1;
    unsigned Thread = 0;
  };

  /// A scoped span. \p Parent < 0 nests it under the calling thread's
  /// innermost open span; a task on a pool thread passes its parent
  /// explicitly.
  class Span {
  public:
    Span(Tracer &T, const char *Name, std::string Unit = "",
         int Parent = -1);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    int id() const { return Id; }
    /// Seconds since the span opened.
    double elapsed() const;

  private:
    Tracer &T;
    int Id;
    int Saved;
  };

  Tracer();
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Self seconds summed per span name.
  std::map<std::string, double> selfSeconds() const;
  /// Seconds summed per span name, children included.
  std::map<std::string, double> totalSeconds() const;
  /// Writes every span as trace-event JSON (temp file + rename).
  bool writeTraceEvents(const std::string &Path) const;

private:
  double now() const;
  int begin(const char *Name, std::string Unit, int Parent);
  void end(int Id);

  std::chrono::steady_clock::time_point Origin;
  mutable std::mutex Mutex;
  std::vector<Record> Records;
  std::map<std::size_t, unsigned> ThreadIds;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
