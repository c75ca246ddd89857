//===- perfbench/driver/EndToEnd.h - Closed-loop measurement ----*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end loop: one client, closed loop. The detection workloads
/// run one sample after another on one thread; a round is one sample
/// seed across every program of the workload. The serve workload sends
/// one batch per round through serve::runServe: every program at four
/// consecutive sample seeds, on min(4, nproc) shards and worker threads.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ENDTOEND_H
#define PERFBENCH_ENDTOEND_H

#include "Bench.h"
#include "Verdict.h"

#include <vector>

namespace perfbench {

struct EndToEndStats {
  /// Per program (serve: one entry for the batches), the time to verdict
  /// of each timed operation, in ms: a detection sample (machine build,
  /// run, finish, classify) or a serve batch.
  std::vector<std::vector<double>> VerdictMs;
  /// Peak resident set of each round, MB (empty when the kernel does not
  /// let the process reset its high-water mark).
  std::vector<double> RoundPeakMb;
  /// Time of one throwaway set-up after each round, s (when asked for).
  std::vector<double> SetupSeconds;
  uint64_t Insts = 0;
  double TimedSeconds = 0.0;
  uint64_t Rounds = 0;

  /// Records one timed operation of program \p Program.
  void record(size_t Program, uint64_t Steps, double Seconds);

  /// Percentile \p P of the time to verdict over the run's program mix:
  /// each counted program's own percentile, weighted by its share of the
  /// counted operations. Programs of one workload take different times,
  /// so a percentile of the pooled times can fall between two programs'
  /// clusters, where a small shift in either moves it far.
  double verdictMs(double P) const;

  /// False for a program with under a tenth of the operations of the
  /// most frequent one: its percentiles rest on a handful of samples,
  /// which its weight would not show (sparse_heap's sweeps are 4% of the
  /// operations but, being 14x longer, would be a third of the figure).
  bool counted(size_t Program) const;

  /// Timed operations of the run.
  size_t operations() const;

  /// Monitored instructions per second of timed wall time: all the
  /// run's instructions over all its timed operations' time.
  double instsPerSecond() const {
    return TimedSeconds > 0 ? static_cast<double>(Insts) / TimedSeconds
                            : 0.0;
  }
};

/// Runs rounds FirstRound, FirstRound+1, ... until \p Seconds of wall
/// time have passed or \p MaxRounds rounds ran, checking every verdict
/// into \p Log. With \p Spans set, records one span per timed call.
/// With \p TimeSetups, times one throwaway build of the workload's
/// set-up after each round, so set-up is timed across the whole run, in
/// whatever state the host is in, like the operations.
EndToEndStats runEndToEnd(const Setup &S, const SeedPlan &Plan,
                          uint64_t FirstRound, double Seconds,
                          uint64_t MaxRounds, const Reference &Ref,
                          VerdictLog &Log, SpanLog *Spans,
                          bool TimeSetups = false);

/// Peak resident set of this process image so far, MB (VmHWM).
double peakRssMb();

/// Percentile \p P (0..100) of \p V by linear interpolation.
double percentile(std::vector<double> V, double P);

} // namespace perfbench

#endif // PERFBENCH_ENDTOEND_H
