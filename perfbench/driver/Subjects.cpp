//===- perfbench/driver/Subjects.cpp - Workload programs and set-up -------===//
//
// The programs of each workload and the set-up they need. The parameters
// live here, not in harness/Suites.cpp, so a later change to a suite
// cannot silently change what the benchmark measures. NOTES.md says why
// each workload was chosen.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "svd/HardwareSvd.h"
#include "svd/OnlineSvd.h"

#include <algorithm>
#include <sched.h>
#include <thread>

using namespace perfbench;
using namespace svd;

bool perfbench::parseWorkload(const std::string &Name, WorkloadKind &Out) {
  for (WorkloadKind K : {WorkloadKind::Servers, WorkloadKind::Proven,
                         WorkloadKind::SparseHeap, WorkloadKind::Serve})
    if (Name == workloadName(K)) {
      Out = K;
      return true;
    }
  return false;
}

const char *perfbench::workloadName(WorkloadKind K) {
  switch (K) {
  case WorkloadKind::Servers:
    return "servers";
  case WorkloadKind::Proven:
    return "proven";
  case WorkloadKind::SparseHeap:
    return "sparse_heap";
  case WorkloadKind::Serve:
    return "serve";
  }
  return "?";
}

unsigned perfbench::nproc() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned perfbench::serveThreads() { return std::min(4u, nproc()); }

SeedPlan::SeedPlan(uint64_t BenchSeed, uint32_t U) : Universe(U) {
  // A multiplicative spread, so neighbouring --seed values start far
  // apart in the reference window.
  Offset = (BenchSeed * 2654435761ULL) % U;
}

uint32_t perfbench::seedUniverse(WorkloadKind K) {
  switch (K) {
  case WorkloadKind::Servers:
  case WorkloadKind::Proven:
    return 512;
  case WorkloadKind::SparseHeap:
    return 48;
  case WorkloadKind::Serve:
    return 512;
  }
  return 1;
}

std::vector<workloads::Workload> perfbench::buildPrograms(WorkloadKind K) {
  std::vector<workloads::Workload> Ws;
  workloads::WorkloadParams P;
  P.Threads = 4;
  switch (K) {
  case WorkloadKind::Servers:
    // The table1 suite's parameters: the paper's three targets.
    P.Iterations = 150;
    P.WorkPadding = 80;
    P.TouchOneIn = 8;
    return workloads::table1Workloads(P);
  case WorkloadKind::Proven:
    // Padding low enough that proven-CU and thread-local accesses are
    // most memory events (at table1's padding of 80 they are under 1%).
    // Enough iterations for samples of tens of milliseconds, like the
    // other workloads': a 1.5 ms sample lands wholly inside or outside a
    // burst of host contention, which makes its median jump between the
    // two speeds from run to run.
    P.Iterations = 2000;
    P.WorkPadding = 1;
    Ws.push_back(workloads::lockedCounters(P));
    Ws.push_back(workloads::tidSlab(P));
    Ws.push_back(workloads::procCache(P));
    return Ws;
  case WorkloadKind::SparseHeap:
    // The shadow suite's shapes: a million-address sweep and a
    // page-per-touch scatter over a million-word heap.
    Ws.push_back(workloads::sparseSlabSweep(4, 262144));
    Ws.push_back(workloads::stridedScatter(4, 4096, 61));
    return Ws;
  case WorkloadKind::Serve:
    // The serve suite's parameters.
    P.Iterations = 60;
    P.WorkPadding = 30;
    P.TouchOneIn = 4;
    return workloads::table1Workloads(P);
  }
  return Ws;
}

Setup perfbench::buildSetup(WorkloadKind K, SpanLog *Spans) {
  Setup S;
  S.Kind = K;
  // The detection workloads wire the static proofs, as `table1 --perf`
  // does; the serve pipeline has no use for them.
  S.UseProofs = K != WorkloadKind::Serve;
  S.CuBudget = K == WorkloadKind::SparseHeap ? 512 : 0;

  std::vector<workloads::Workload> Ws;
  {
    SpanLog::Scope Sp(Spans, "isa.assemble", 0);
    Ws = buildPrograms(K);
  }
  for (workloads::Workload &W : Ws) {
    auto Sub = std::make_unique<Subject>();
    Sub->W = std::move(W);
    const isa::Program &P = Sub->W.Program;
    if (S.UseProofs) {
      {
        SpanLog::Scope Sp(Spans, "analysis.access_table", 0);
        Sub->Access = analysis::buildAccessTable(P);
      }
      {
        SpanLog::Scope Sp(Spans, "analysis.atomic_proof", 0);
        Sub->Proofs = analysis::proveAtomicCus(P);
      }
    }
    {
      SpanLog::Scope Sp(Spans, "vm.translate_build", 0);
      Sub->Cache = std::make_unique<vm::TransCache>(P);
    }

    auto On = std::make_shared<detect::OnlineSvdDetectorConfig>();
    On->Budget.MaxStateEntries = S.CuBudget;
    auto Bare = std::make_shared<detect::OnlineSvdDetectorConfig>(*On);
    if (S.UseProofs) {
      On->Budget.Access = &Sub->Access;
      On->Budget.Proofs = &Sub->Proofs;
    }
    auto Hw = std::make_shared<detect::HardwareSvdDetectorConfig>();
    Hw->Hw.Cache.NumCpus = P.numThreads();
    Hw->Budget = On->Budget;
    Sub->Online = std::move(On);
    Sub->OnlineBare = std::move(Bare);
    Sub->Hw = std::move(Hw);
    S.Subjects.push_back(std::move(Sub));
  }
  if (K == WorkloadKind::SparseHeap) {
    // Two dozen scatters take a little longer than one sweep, so both
    // shapes weigh alike in a round's time, and the sweeps stay well
    // inside the top tenth of the samples: the verdict p90 is a
    // scatter's, not a point between the two shapes.
    S.Subjects[1]->PerRound = 24;
  }
  return S;
}
