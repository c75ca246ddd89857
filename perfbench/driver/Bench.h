//===- perfbench/driver/Bench.h - Repository benchmark driver ---*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared types of the benchmark driver. The driver links the
/// repository's libraries and calls only their public entry points; every
/// layer is timed from outside, around those calls (NOTES.md lists the
/// layer -> end-to-end map).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "analysis/AccessTable.h"
#include "analysis/AtomicProof.h"
#include "svd/Detector.h"
#include "vm/Translate.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

enum class WorkloadKind { Servers, Proven, SparseHeap, Serve };

/// Parses a --workload name; false when unknown.
bool parseWorkload(const std::string &Name, WorkloadKind &Out);
const char *workloadName(WorkloadKind K);

/// CPUs this process may run on (what `nproc` prints).
unsigned nproc();

/// Worker threads of the serve workload: min(4, nproc).
unsigned serveThreads();

class SpanLog;

/// One monitored program plus the static artefacts built for it during
/// set-up. Heap-allocated so the Program address the artefacts and every
/// Machine refer to stays put.
struct Subject {
  svd::workloads::Workload W;
  svd::analysis::AccessTable Access;
  svd::analysis::CuProofs Proofs;
  std::unique_ptr<svd::vm::TransCache> Cache;
  /// Registry detector configs shared by this subject's samples: "svd"
  /// (proofs wired when the workload uses them), its proof-free twin,
  /// and "hwsvd" with Cache.NumCpus = the program's threads.
  std::shared_ptr<const svd::detect::DetectorConfig> Online;
  std::shared_ptr<const svd::detect::DetectorConfig> OnlineBare;
  std::shared_ptr<const svd::detect::DetectorConfig> Hw;
  /// Samples of this program per end-to-end round, each at its own seed.
  uint32_t PerRound = 1;
};

/// Everything a workload builds before its first monitored instruction.
struct Setup {
  WorkloadKind Kind = WorkloadKind::Servers;
  std::vector<std::unique_ptr<Subject>> Subjects;
  /// Live-CU budget of the detection samples (0 = unbounded).
  uint64_t CuBudget = 0;
  /// Whether the static proofs are wired into the detectors.
  bool UseProofs = false;
};

/// Builds the workload's programs (assembly), runs the static prove
/// layer where the workload uses it, and builds each translation cache.
/// Records one span per layer call when \p Spans is set.
Setup buildSetup(WorkloadKind K, SpanLog *Spans);

/// The workload's programs alone, as constructed in set-up (the
/// isa/workloads layer).
std::vector<svd::workloads::Workload> buildPrograms(WorkloadKind K);

/// Maps the benchmark's --seed to per-sample seeds: sample I of a run
/// uses seed 1 + (Offset + I) mod Universe. The committed verdict
/// reference covers exactly the seeds 1..Universe, so every sample a run
/// draws has a reference signature.
struct SeedPlan {
  uint64_t Offset = 0;
  uint32_t Universe = 1;

  SeedPlan(uint64_t BenchSeed, uint32_t Universe);
  uint64_t sampleSeed(uint64_t I) const {
    return 1 + (Offset + I) % Universe;
  }
};

/// Seeds in the verdict reference of \p K (see SeedPlan).
uint32_t seedUniverse(WorkloadKind K);

/// The offline path (trace, frames, PDG, CUs) holds a whole trace in
/// memory; samples of more steps than this skip it (sparse_heap's sweep).
constexpr uint64_t OfflineStepCap = 2'000'000;

/// One reported metric.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
