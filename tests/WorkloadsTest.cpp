//===- tests/WorkloadsTest.cpp - Workload analog tests ---------------------===//

#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace svd;
using namespace svd::workloads;
using vm::Machine;
using vm::MachineConfig;
using vm::StopReason;

namespace {

StopReason runSeed(const Workload &W, uint64_t Seed, Machine *&Out,
                   std::unique_ptr<Machine> &Holder) {
  MachineConfig Cfg;
  Cfg.SchedSeed = Seed;
  Holder = std::make_unique<Machine>(W.Program, Cfg);
  Out = Holder.get();
  return Out->run();
}

} // namespace

TEST(Workloads, ApacheAssemblesAndRuns) {
  WorkloadParams P;
  P.Threads = 2;
  P.Iterations = 10;
  Workload W = apacheLog(P);
  EXPECT_TRUE(W.HasKnownBug);
  // P.Threads workers plus the scoreboard-monitor thread.
  EXPECT_EQ(W.Program.numThreads(), 3u);
  bool AnyBugPc = false;
  for (const auto &S : W.BugPcs)
    AnyBugPc |= !S.empty();
  EXPECT_TRUE(AnyBugPc);
  Machine *M = nullptr;
  std::unique_ptr<Machine> H;
  EXPECT_EQ(runSeed(W, 1, M, H), StopReason::AllHalted);
}

TEST(Workloads, ApacheBugManifestsForSomeSeed) {
  WorkloadParams P;
  P.Threads = 4;
  P.Iterations = 20;
  Workload W = apacheLog(P);
  bool Manifested = false;
  for (uint64_t Seed = 1; Seed <= 10 && !Manifested; ++Seed) {
    Machine *M = nullptr;
    std::unique_ptr<Machine> H;
    runSeed(W, Seed, M, H);
    Manifested = W.Manifested(*M);
  }
  EXPECT_TRUE(Manifested) << "the log corruption should hit some seed";
}

TEST(Workloads, ApacheLockedVariantNeverCorrupts) {
  WorkloadParams P;
  P.Threads = 4;
  P.Iterations = 20;
  P.WithLock = true;
  Workload W = apacheLog(P);
  EXPECT_FALSE(W.HasKnownBug);
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    Machine *M = nullptr;
    std::unique_ptr<Machine> H;
    ASSERT_EQ(runSeed(W, Seed, M, H), StopReason::AllHalted);
    EXPECT_FALSE(W.Manifested(*M)) << "seed " << Seed;
  }
}

TEST(Workloads, MysqlPreparedCrashesForSomeSeed) {
  WorkloadParams P;
  P.Threads = 4;
  P.Iterations = 20;
  Workload W = mysqlPrepared(P);
  EXPECT_TRUE(W.HasKnownBug);
  bool Crashed = false;
  for (uint64_t Seed = 1; Seed <= 10 && !Crashed; ++Seed) {
    Machine *M = nullptr;
    std::unique_ptr<Machine> H;
    runSeed(W, Seed, M, H);
    Crashed = W.Manifested(*M);
    if (Crashed) {
      EXPECT_FALSE(M->errors().empty());
    }
  }
  EXPECT_TRUE(Crashed) << "the prepared-query crash should hit some seed";
}

TEST(Workloads, MysqlPreparedSingleThreadNeverCrashes) {
  WorkloadParams P;
  P.Threads = 1;
  P.Iterations = 30;
  Workload W = mysqlPrepared(P);
  Machine *M = nullptr;
  std::unique_ptr<Machine> H;
  EXPECT_EQ(runSeed(W, 3, M, H), StopReason::AllHalted);
  EXPECT_FALSE(W.Manifested(*M));
}

TEST(Workloads, PgsqlRunsCleanAcrossSeeds) {
  WorkloadParams P;
  P.Threads = 4;
  P.Iterations = 20;
  Workload W = pgsqlOltp(P);
  EXPECT_FALSE(W.HasKnownBug);
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    Machine *M = nullptr;
    std::unique_ptr<Machine> H;
    ASSERT_EQ(runSeed(W, Seed, M, H), StopReason::AllHalted);
    EXPECT_FALSE(W.Manifested(*M))
        << "conservation violated at seed " << Seed;
  }
}

TEST(Workloads, TableLockAndQueueRun) {
  WorkloadParams P;
  P.Threads = 3;
  P.Iterations = 15;
  for (Workload W : {mysqlTableLock(P), sharedQueue(P)}) {
    EXPECT_FALSE(W.HasKnownBug) << W.Name;
    Machine *M = nullptr;
    std::unique_ptr<Machine> H;
    EXPECT_EQ(runSeed(W, 2, M, H), StopReason::AllHalted) << W.Name;
    EXPECT_TRUE(M->errors().empty()) << W.Name;
  }
}

TEST(Workloads, RandomGeneratorIsDeterministic) {
  RandomParams P;
  P.Seed = 42;
  P.OmitLockProbability = 0.3;
  Workload A = randomWorkload(P);
  Workload B = randomWorkload(P);
  EXPECT_EQ(A.Program.numInstructions(), B.Program.numInstructions());
  EXPECT_EQ(A.BugPcs, B.BugPcs);
}

TEST(Workloads, RandomCorrectProgramNeverManifests) {
  RandomParams P;
  P.Seed = 7;
  P.OmitLockProbability = 0.0;
  Workload W = randomWorkload(P);
  EXPECT_FALSE(W.HasKnownBug);
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    Machine *M = nullptr;
    std::unique_ptr<Machine> H;
    ASSERT_EQ(runSeed(W, Seed, M, H), StopReason::AllHalted);
    EXPECT_FALSE(W.Manifested(*M)) << "seed " << Seed;
  }
}

TEST(Workloads, RandomBuggyProgramEventuallyManifests) {
  RandomParams P;
  P.Seed = 11;
  P.Threads = 4;
  P.Iterations = 40;
  P.OmitLockProbability = 0.5;
  Workload W = randomWorkload(P);
  EXPECT_TRUE(W.HasKnownBug);
  bool Manifested = false;
  for (uint64_t Seed = 1; Seed <= 10 && !Manifested; ++Seed) {
    Machine *M = nullptr;
    std::unique_ptr<Machine> H;
    runSeed(W, Seed, M, H);
    Manifested = W.Manifested(*M);
  }
  EXPECT_TRUE(Manifested);
}

TEST(Workloads, TrueReportClassification) {
  WorkloadParams P;
  P.Threads = 2;
  P.Iterations = 5;
  Workload W = apacheLog(P);
  // Find one tagged pc and one untagged pc of thread 0.
  ASSERT_FALSE(W.BugPcs[0].empty());
  uint32_t BugPc = *W.BugPcs[0].begin();
  uint32_t CleanPc = 0;
  while (W.BugPcs[0].count(CleanPc))
    ++CleanPc;

  detect::Violation V;
  V.Tid = 0;
  V.Pc = BugPc;
  V.OtherTid = 1;
  V.OtherPc = CleanPc;
  EXPECT_TRUE(W.isTrueReport(V));
  V.Pc = CleanPc;
  V.OtherPc = CleanPc;
  EXPECT_FALSE(W.isTrueReport(V));
}

TEST(Workloads, Table1CoversThePaperPrograms) {
  WorkloadParams P;
  P.Threads = 2;
  P.Iterations = 4;
  std::vector<Workload> All = table1Workloads(P);
  ASSERT_EQ(All.size(), 3u);
  EXPECT_EQ(All[0].Name, "Apache");
  EXPECT_EQ(All[1].Name, "MySQL");
  EXPECT_EQ(All[2].Name, "PgSQL");
  EXPECT_TRUE(All[0].HasKnownBug);
  EXPECT_TRUE(All[1].HasKnownBug);
  EXPECT_FALSE(All[2].HasKnownBug);
}

// Padding 0 behaves as padding 1 in the count-down builders: every
// busy-work loop runs once, so each program halts well inside a small
// step budget instead of counting down from a 64-bit `rnd` draw.
TEST(Workloads, ZeroPaddingHalts) {
  WorkloadParams P;
  P.Threads = 2;
  P.Iterations = 4;
  P.WorkPadding = 0;
  WorkloadParams One = P;
  One.WorkPadding = 1;
  for (auto Build : {lockedCounters, tidSlab, procCache, procGap}) {
    Workload W = Build(P);
    Workload W1 = Build(One);
    MachineConfig Cfg;
    Cfg.MaxSteps = 10'000;
    Machine M(W.Program, Cfg);
    Machine M1(W1.Program, Cfg);
    EXPECT_EQ(M.run(), StopReason::AllHalted) << W.Name;
    M1.run();
    EXPECT_EQ(M.steps(), M1.steps()) << W.Name;
  }
}
