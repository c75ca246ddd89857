//===- tests/TestUtil.h - Shared helpers for the test suites ----*- C++ -*-===//

#ifndef SVD_TESTS_TESTUTIL_H
#define SVD_TESTS_TESTUTIL_H

#include "harness/Suites.h"
#include "isa/Assembler.h"
#include "trace/Trace.h"
#include "vm/Machine.h"
#include "workloads/Workloads.h"

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace svd {
namespace testutil {

/// Expands {(tid, count), ...} into a flat schedule.
inline std::vector<isa::ThreadId>
sched(std::initializer_list<std::pair<int, int>> Runs) {
  std::vector<isa::ThreadId> S;
  for (const auto &[Tid, Count] : Runs)
    for (int I = 0; I < Count; ++I)
      S.push_back(static_cast<isa::ThreadId>(Tid));
  return S;
}

/// Runs \p P to completion under seed \p Seed, recording the trace.
inline trace::ProgramTrace recordRun(const isa::Program &P,
                                     uint64_t Seed = 1) {
  vm::MachineConfig Cfg;
  Cfg.SchedSeed = Seed;
  vm::Machine M(P, Cfg);
  trace::TraceRecorder R(P);
  M.addObserver(&R);
  M.run();
  return R.takeTrace();
}

/// Runs \p P with the exact interleaving prefix \p Prefix, then finishes
/// the run with the seeded scheduler, recording the trace. Observers in
/// \p Extra are attached for the whole run.
inline trace::ProgramTrace
recordWithPrefix(const isa::Program &P,
                 const std::vector<isa::ThreadId> &Prefix,
                 std::vector<vm::ExecutionObserver *> Extra = {},
                 uint64_t Seed = 1) {
  vm::MachineConfig Cfg;
  Cfg.SchedSeed = Seed;
  vm::Machine M(P, Cfg);
  trace::TraceRecorder R(P);
  M.addObserver(&R);
  for (vm::ExecutionObserver *O : Extra)
    M.addObserver(O);
  M.setReplaySchedule(Prefix);
  M.run();
  M.clearReplaySchedule();
  M.run();
  return R.takeTrace();
}

/// Calls \p Fn(Label, Trace) over the offline back end's differential
/// corpus: seeded random lock-based programs (correct, and with locks
/// omitted) and the serve-suite programs, each recorded at three
/// scheduler seeds.
template <typename F> void forEachCorpusTrace(F Fn) {
  std::vector<workloads::Workload> Ws = harness::suiteWorkloads("serve");
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    workloads::RandomParams R;
    R.Seed = Seed * 17 + 3;
    R.OmitLockProbability = Seed % 2 ? 0.3 : 0.0;
    Ws.push_back(workloads::randomWorkload(R));
  }
  for (size_t W = 0; W < Ws.size(); ++W)
    for (uint64_t Seed : {1, 7, 42}) {
      trace::ProgramTrace T = recordRun(Ws[W].Program, Seed);
      Fn(Ws[W].Name + "#" + std::to_string(W) + "/seed " +
             std::to_string(Seed),
         T);
    }
}

} // namespace testutil
} // namespace svd

#endif // SVD_TESTS_TESTUTIL_H
