//===- perfbench/driver/Spans.h - In-memory span log ------------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span log. Each span records its name, start, end,
/// parent span, and the sample or session id it belongs to; spans stay
/// in memory until the run ends and are then written through
/// obs::TraceCollector, so the file opens in Perfetto / chrome://tracing.
/// Single-threaded: spans are opened only by the driver's main thread.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include "Bench.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int32_t Parent = -1; ///< index into the log; -1 for a root span
  uint64_t Id = 0;     ///< sample / session id

  uint64_t durNs() const { return EndNs - StartNs; }
};

class SpanLog {
public:
  SpanLog() : Epoch(Clock::now()) {}

  /// RAII span: opens on construction, closes on destruction. A null
  /// log makes it a no-op, so untraced code paths share the same calls.
  class Scope {
  public:
    Scope(SpanLog *Log, const char *Name, uint64_t Id);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog *Log;
    int32_t Index = -1;
  };

  const std::vector<Span> &spans() const { return Spans; }
  uint64_t nowNs() const;

  /// Self time of span \p I: its duration minus the time its direct
  /// children cover.
  uint64_t selfNs(size_t I) const;

  /// Time span \p I's direct children cover.
  uint64_t childNs(size_t I) const { return ChildNs[I]; }

  /// Total self time per span name over spans [From, size()).
  std::map<std::string, uint64_t> selfTimeByName(size_t From = 0) const;

  /// Writes the log as trace_event JSON (one track per sample id).
  /// Returns false when the file cannot be written.
  bool writeChromeTrace(const std::string &Path) const;

private:
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<uint64_t> ChildNs; ///< per span: time covered by children
  int32_t Open = -1;             ///< innermost open span
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
