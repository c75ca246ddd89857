//===- tests/TranslateDiffTest.cpp - Burst vs single-step execution -------===//
//
// run() executes whole timeslices as micro-op bursts with its own copy
// of the scheduling decision; stepOnce() takes one scheduleNext()
// decision per instruction. The contract between them (DESIGN.md
// section 16): the same schedule, counters, errors, prints, final
// memory, and detector verdicts for every configuration. This suite
// enforces that differentially — one machine driven by run(), one by a
// stepOnce() loop, identical configs — over the paper suites,
// randomized programs, serial mode, migration, replay, the step budget,
// and checkpoint/restore mid-slice.
//
//===----------------------------------------------------------------------===//

#include "harness/Harness.h"
#include "harness/Suites.h"
#include "svd/OnlineSvd.h"
#include "vm/Machine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace svd;

namespace {

/// Everything deterministic one run produces.
struct RunSnap {
  vm::StopReason Stop = vm::StopReason::AllHalted;
  uint64_t Steps = 0;
  std::vector<isa::ThreadId> Schedule;
  vm::ExecCounters C;
  std::vector<vm::ProgramError> Errors;
  std::vector<vm::PrintedValue> Prints;
  std::vector<isa::Word> Memory;
  std::vector<detect::Violation> Violations;
  uint64_t CusFormed = 0;
};

/// How a run is driven: run()'s bursts, or one stepOnce() per step.
enum class Drive { Burst, Step };

/// Runs \p P to completion under \p MC with a fresh OnlineSvd attached,
/// driven as \p D, and snapshots every deterministic output.
RunSnap runOne(const isa::Program &P, const vm::MachineConfig &MC,
               Drive D) {
  vm::Machine M(P, MC);
  detect::OnlineSvd Svd(P, detect::OnlineSvdConfig());
  M.addObserver(&Svd);
  RunSnap S;
  if (D == Drive::Burst) {
    S.Stop = M.run();
  } else {
    while (M.stepOnce(S.Stop)) {
    }
    M.notifyRunEnd();
  }
  S.Steps = M.steps();
  S.Schedule = M.schedule();
  S.C = M.counters();
  S.Errors = M.errors();
  S.Prints = M.printed();
  S.Memory.reserve(P.MemoryWords);
  for (isa::Addr A = 0; A < P.MemoryWords; ++A)
    S.Memory.push_back(M.readMem(A));
  S.Violations = Svd.violations();
  S.CusFormed = Svd.numCusFormed();
  return S;
}

/// Step-driven \p S and burst-driven \p B must agree on every field.
void expectSame(const RunSnap &S, const RunSnap &B, const std::string &Ctx) {
  EXPECT_EQ(S.Stop, B.Stop) << Ctx;
  EXPECT_EQ(S.Steps, B.Steps) << Ctx;
  EXPECT_EQ(S.Schedule, B.Schedule) << Ctx;

  EXPECT_EQ(S.C.Loads, B.C.Loads) << Ctx;
  EXPECT_EQ(S.C.Stores, B.C.Stores) << Ctx;
  EXPECT_EQ(S.C.Alu, B.C.Alu) << Ctx;
  EXPECT_EQ(S.C.Branches, B.C.Branches) << Ctx;
  EXPECT_EQ(S.C.LockAcquires, B.C.LockAcquires) << Ctx;
  EXPECT_EQ(S.C.LockSpins, B.C.LockSpins) << Ctx;
  EXPECT_EQ(S.C.Unlocks, B.C.Unlocks) << Ctx;
  EXPECT_EQ(S.C.ProgramErrors, B.C.ProgramErrors) << Ctx;
  EXPECT_EQ(S.C.FaultStalls, B.C.FaultStalls) << Ctx;
  EXPECT_EQ(S.C.FaultLockFailures, B.C.FaultLockFailures) << Ctx;
  EXPECT_EQ(S.C.FaultPreemptions, B.C.FaultPreemptions) << Ctx;

  ASSERT_EQ(S.Errors.size(), B.Errors.size()) << Ctx;
  for (size_t K = 0; K < S.Errors.size(); ++K) {
    EXPECT_EQ(S.Errors[K].Seq, B.Errors[K].Seq) << Ctx;
    EXPECT_EQ(S.Errors[K].Tid, B.Errors[K].Tid) << Ctx;
    EXPECT_EQ(S.Errors[K].Pc, B.Errors[K].Pc) << Ctx;
    EXPECT_EQ(S.Errors[K].Message, B.Errors[K].Message) << Ctx;
  }
  ASSERT_EQ(S.Prints.size(), B.Prints.size()) << Ctx;
  for (size_t K = 0; K < S.Prints.size(); ++K) {
    EXPECT_EQ(S.Prints[K].Seq, B.Prints[K].Seq) << Ctx;
    EXPECT_EQ(S.Prints[K].Tid, B.Prints[K].Tid) << Ctx;
    EXPECT_EQ(S.Prints[K].Value, B.Prints[K].Value) << Ctx;
  }
  EXPECT_EQ(S.Memory, B.Memory) << Ctx;

  ASSERT_EQ(S.Violations.size(), B.Violations.size()) << Ctx;
  for (size_t K = 0; K < S.Violations.size(); ++K) {
    const detect::Violation &X = S.Violations[K];
    const detect::Violation &Y = B.Violations[K];
    EXPECT_TRUE(X.Seq == Y.Seq && X.Tid == Y.Tid && X.Pc == Y.Pc &&
                X.OtherTid == Y.OtherTid && X.OtherPc == Y.OtherPc &&
                X.OtherSeq == Y.OtherSeq && X.Address == Y.Address)
        << Ctx << ": violation " << K << " diverged";
  }
  EXPECT_EQ(S.CusFormed, B.CusFormed) << Ctx;
}

/// Single steps vs bursts over \p P at \p MC.
void diffProgram(const isa::Program &P, const vm::MachineConfig &MC,
                 const std::string &Ctx) {
  expectSame(runOne(P, MC, Drive::Step), runOne(P, MC, Drive::Burst), Ctx);
}

vm::MachineConfig configFor(uint64_t Seed, uint32_t MinTs, uint32_t MaxTs) {
  harness::SampleConfig SC;
  SC.Seed = Seed;
  SC.MinTimeslice = MinTs;
  SC.MaxTimeslice = MaxTs;
  return harness::machineConfigFor(SC);
}

/// Every workload of \p Suite at the suite's real parameterization,
/// across seeds and three timeslice regimes including the table-1
/// per-instruction interleave. \p Thorough=false (the multi-megaword
/// shadow suite, where one run costs seconds) keeps one seed and the
/// two extreme regimes — still both drive modes, just fewer repeats.
void diffSuite(const char *Suite, bool Thorough = true) {
  std::vector<workloads::Workload> Ws = harness::suiteWorkloads(Suite);
  ASSERT_FALSE(Ws.empty()) << Suite;
  std::vector<uint64_t> Seeds = Thorough ? std::vector<uint64_t>{1, 7, 23}
                                         : std::vector<uint64_t>{1};
  std::vector<std::pair<uint32_t, uint32_t>> Regimes =
      Thorough ? std::vector<std::pair<uint32_t, uint32_t>>{{1, 1}, {1, 4},
                                                            {8, 32}}
               : std::vector<std::pair<uint32_t, uint32_t>>{{1, 1}, {8, 32}};
  for (const workloads::Workload &W : Ws) {
    for (uint64_t Seed : Seeds) {
      for (auto [MinTs, MaxTs] : Regimes) {
        diffProgram(W.Program, configFor(Seed, MinTs, MaxTs),
                    std::string(Suite) + "/" + W.Name + " seed " +
                        std::to_string(Seed) + " ts " +
                        std::to_string(MinTs) + ".." +
                        std::to_string(MaxTs));
      }
    }
  }
}

} // namespace

// Every paper suite, one test each so ctest runs them concurrently
// (predict is excluded: its bench drives private machines through a
// confirmation engine, not run()).
TEST(TranslateDiff, SuiteTable1) { diffSuite("table1"); }
TEST(TranslateDiff, SuiteTable2) { diffSuite("table2"); }
TEST(TranslateDiff, SuiteSec73) { diffSuite("sec73"); }
TEST(TranslateDiff, SuiteFig1) { diffSuite("fig1"); }
TEST(TranslateDiff, SuiteInterproc) { diffSuite("interproc"); }
TEST(TranslateDiff, SuiteShadow) { diffSuite("shadow", /*Thorough=*/false); }

// Randomized programs — correct and lock-omitting buggy ones — sweep
// opcode mixes and block shapes no curated workload pins down.
TEST(TranslateDiff, RandomPrograms) {
  for (uint64_t Gen = 1; Gen <= 6; ++Gen) {
    workloads::RandomParams RP;
    RP.Seed = Gen * 77;
    RP.Threads = 2 + Gen % 3;
    RP.Iterations = 15;
    RP.OmitLockProbability = (Gen % 2) ? 0.3 : 0.0;
    workloads::Workload W = workloads::randomWorkload(RP);
    for (uint64_t Seed : {3, 19}) {
      for (auto [MinTs, MaxTs] : {std::pair<uint32_t, uint32_t>{1, 1},
                                  std::pair<uint32_t, uint32_t>{2, 9}}) {
        diffProgram(W.Program, configFor(Seed, MinTs, MaxTs),
                    W.Name + " gen " + std::to_string(Gen) + " seed " +
                        std::to_string(Seed));
      }
    }
  }
}

// Serial mode (run() grants the whole stretch as one burst) and
// OS-style CPU migration (run() falls back to stepOnce) stay identical
// too.
TEST(TranslateDiff, SerialModeAndMigration) {
  workloads::WorkloadParams WP;
  WP.Threads = 4;
  WP.Iterations = 15;
  WP.WorkPadding = 6;
  for (workloads::Workload W : workloads::table1Workloads(WP)) {
    vm::MachineConfig Serial = configFor(5, 1, 4);
    Serial.SerialMode = true;
    diffProgram(W.Program, Serial, W.Name + " serial");

    vm::MachineConfig Migrate = configFor(5, 1, 4);
    Migrate.NumCpus = 2;
    Migrate.MigrationInterval = 16;
    diffProgram(W.Program, Migrate, W.Name + " migration");
  }
}

// Replaying a burst-recorded schedule follows the recording exactly
// (the replay branch is pre-burst, so the replay rides stepOnce).
TEST(TranslateDiff, ReplayFollowsRecording) {
  workloads::WorkloadParams WP;
  WP.Threads = 3;
  WP.Iterations = 12;
  workloads::Workload W = workloads::pgsqlOltp(WP);

  vm::MachineConfig MC = configFor(99, 1, 4);
  vm::Machine Rec(W.Program, MC);
  Rec.run();

  vm::MachineConfig RMC = configFor(1234, 1, 4); // divergent sched seed
  RMC.RndSeed = MC.RndSeed; // same program inputs — replay's precondition
  vm::Machine Rep(W.Program, RMC);
  Rep.setReplaySchedule(Rec.schedule());
  EXPECT_EQ(Rep.run(), vm::StopReason::AllHalted);
  EXPECT_EQ(Rep.schedule(), Rec.schedule());
  EXPECT_EQ(Rep.steps(), Rec.steps());
}

// Checkpoint/restore across a burst run, with the checkpoint taken
// MID-SLICE and mid-block (a stepped prefix stops wherever it stops):
// run() must resume from an arbitrary pc and slice position and still
// match a stepOnce() loop and its own first pass.
TEST(TranslateDiff, CheckpointRestoreMidBlock) {
  workloads::WorkloadParams WP;
  WP.Threads = 3;
  WP.Iterations = 12;
  WP.WorkPadding = 8; // straight-line padding makes multi-op blocks
  workloads::Workload W = workloads::mysqlPrepared(WP);

  vm::MachineConfig MC = configFor(7, 4, 9);
  RunSnap I = runOne(W.Program, MC, Drive::Step);

  vm::Machine M(W.Program, MC);
  vm::StopReason R;
  // 13 single steps land mid-slice and mid-block for these timeslices.
  for (int K = 0; K < 13; ++K)
    ASSERT_TRUE(M.stepOnce(R));
  vm::Checkpoint C = M.checkpoint();
  EXPECT_EQ(M.run(), I.Stop);
  std::vector<isa::ThreadId> FirstPass = M.schedule();
  EXPECT_EQ(FirstPass, I.Schedule);
  EXPECT_EQ(M.steps(), I.Steps);

  // Roll back to the mid-slice checkpoint and run the tail again: the
  // burst loop resumes at a non-leader pc and reproduces the run.
  M.restore(C);
  EXPECT_EQ(M.run(), I.Stop);
  EXPECT_EQ(M.schedule(), I.Schedule);
  EXPECT_EQ(M.steps(), I.Steps);
  for (isa::Addr A = 0; A < W.Program.MemoryWords; ++A)
    ASSERT_EQ(M.readMem(A), I.Memory[A]) << "addr " << A;
}

TEST(TranslateDiff, BurstStopsAtStepBudget) {
  // MaxSteps truncation mid-slice: the budget must clamp the burst, the
  // stop reason must be StepBudget, and a continuation after raising
  // the budget is NOT part of the contract — instead compare against
  // single steps at the same tiny budget.
  workloads::WorkloadParams WP;
  WP.Threads = 2;
  WP.Iterations = 10;
  workloads::Workload W = workloads::apacheLog(WP);
  for (uint64_t Budget : {1, 7, 50}) {
    vm::MachineConfig MC = configFor(4, 8, 32);
    MC.MaxSteps = Budget;
    diffProgram(W.Program, MC, "budget " + std::to_string(Budget));
  }
}
