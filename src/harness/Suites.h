//===- harness/Suites.h - Named benchmark suites ----------------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper-table benches (Table 1/2, Section 7.3, Figure 1, the
/// svd-predict report) as named suites behind one entry point, so
/// svd-bench can select them by name and every suite shares the same
/// --jobs/--seeds/--json handling. Each suite fans its samples through
/// harness::ParallelRunner; output is bit-identical for every Jobs
/// value, and JSON output contains no timing or thread-count fields so
/// runs at different --jobs diff clean.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_HARNESS_SUITES_H
#define SVD_HARNESS_SUITES_H

#include "workloads/Workloads.h"

#include <string>
#include <vector>

namespace svd {
namespace obs {
class Registry;
class TraceCollector;
} // namespace obs

namespace harness {

/// Options shared by every suite.
struct SuiteOptions {
  /// Worker threads for the sample fan-out; 0 = hardware concurrency.
  unsigned Jobs = 1;
  /// Seeds per row; 0 = the suite's paper-default count. Suites without
  /// a seed sweep (table1, predict) ignore it.
  unsigned Seeds = 0;
  /// Emit a machine-readable JSON document instead of the text tables.
  bool Json = false;
  /// table1 only: add a per-row performance section — instructions per
  /// second under the online detector with both static proofs wired in
  /// (access table + CU atomicity proofs), plus the deterministic event
  /// and pruned-event counts. Everything except insts_per_sec is a pure
  /// function of the workload (tools/bench_diff compares those fields
  /// exactly against the committed BENCH_table1.json baseline and
  /// treats the wall-clock rate as advisory).
  bool Perf = false;
  /// Observability sink for the sample fan-out (svd-bench
  /// --metrics-json); counters are bit-identical at any Jobs. Not owned.
  obs::Registry *Obs = nullptr;
  /// Chrome-trace sink for the sample fan-out (svd-bench --trace-out).
  /// Not owned.
  obs::TraceCollector *Trace = nullptr;
};

/// One named suite.
struct Suite {
  const char *Name;        ///< CLI name (--suite NAME)
  const char *Description; ///< one line for --list
  int (*Run)(const SuiteOptions &O);
};

/// All registered suites, in display order.
const std::vector<Suite> &suites();

/// Finds a suite by name; null when unknown.
const Suite *findSuite(const std::string &Name);

/// The workload set a suite executes, constructed with the suite's own
/// parameters — THE single source of truth shared by the suite bodies
/// and by consumers that re-run suite workloads under different
/// conditions (svd-chaos). Returns an empty vector for unknown names.
std::vector<workloads::Workload> suiteWorkloads(const std::string &Name);

} // namespace harness
} // namespace svd

#endif // SVD_HARNESS_SUITES_H
