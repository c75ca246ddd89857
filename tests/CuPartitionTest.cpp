//===- tests/CuPartitionTest.cpp - Unit tests for offline CU inference ----===//

#include "TestUtil.h"
#include "cu/CuPartition.h"
#include "pdg/Pdg.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

using namespace svd;
using namespace svd::cu;
using isa::assembleOrDie;
using testutil::recordRun;
using testutil::recordWithPrefix;
using testutil::sched;
using trace::EventKind;
using trace::ProgramTrace;

namespace {

CuPartition partitionOf(const ProgramTrace &T) {
  pdg::DynamicPdg G = pdg::DynamicPdg::build(T);
  return CuPartition::compute(T, G);
}

/// Number of CUs owned by thread \p Tid.
size_t unitsOfThread(const CuPartition &CUs, isa::ThreadId Tid) {
  size_t N = 0;
  for (const ComputationalUnit &U : CUs.units())
    if (U.Tid == Tid)
      ++N;
  return N;
}

} // namespace

TEST(CuPartition, DependentChainFormsOneUnit) {
  isa::Program P = assembleOrDie(R"(
.thread t
  li r1, 1
  addi r2, r1, 1
  add r3, r2, r1
  halt
)");
  ProgramTrace T = recordRun(P);
  CuPartition CUs = partitionOf(T);
  ASSERT_EQ(CUs.units().size(), 1u);
  EXPECT_EQ(CUs.units()[0].Events.size(), 3u);
}

TEST(CuPartition, IndependentChainsFormSeparateUnits) {
  isa::Program P = assembleOrDie(R"(
.thread t
  li r1, 1
  addi r1, r1, 1
  li r2, 5
  addi r2, r2, 2
  halt
)");
  ProgramTrace T = recordRun(P);
  CuPartition CUs = partitionOf(T);
  EXPECT_EQ(CUs.units().size(), 2u);
  // The two chains are in different units.
  EXPECT_NE(CUs.unitOf(0), CUs.unitOf(2));
  EXPECT_EQ(CUs.unitOf(0), CUs.unitOf(1));
  EXPECT_EQ(CUs.unitOf(2), CUs.unitOf(3));
}

TEST(CuPartition, SharedRawCutsUnit) {
  // Thread a writes shared g then reads it back: the region hypothesis
  // forbids a true-shared arc inside a CU, so the read starts a new CU.
  isa::Program P = assembleOrDie(R"(
.global g
.thread a
  li r1, 3
  st r1, [@g]
  ld r2, [@g]
  addi r3, r2, 1
  halt
.thread b
  ld r9, [@g]
  halt
)");
  ProgramTrace T = recordWithPrefix(P, sched({{0, 5}, {1, 2}}));
  CuPartition CUs = partitionOf(T);
  EXPECT_EQ(unitsOfThread(CUs, 0), 2u);
  // li+st together; ld+addi together; and they differ.
  EXPECT_EQ(CUs.unitOf(0), CUs.unitOf(1));
  EXPECT_EQ(CUs.unitOf(2), CUs.unitOf(3));
  EXPECT_NE(CUs.unitOf(1), CUs.unitOf(2));
}

TEST(CuPartition, UnsharedRawDoesNotCut) {
  // Same shape but g is private: one CU.
  isa::Program P = assembleOrDie(R"(
.global g
.thread a
  li r1, 3
  st r1, [@g]
  ld r2, [@g]
  addi r3, r2, 1
  halt
)");
  ProgramTrace T = recordRun(P);
  CuPartition CUs = partitionOf(T);
  EXPECT_EQ(CUs.units().size(), 1u);
  EXPECT_EQ(CUs.units()[0].Events.size(), 4u);
}

TEST(CuPartition, SharedWritesRecorded) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread a
  li r1, 3
  st r1, [@g]
  halt
.thread b
  ld r9, [@g]
  halt
)");
  ProgramTrace T = recordWithPrefix(P, sched({{0, 3}, {1, 2}}));
  CuPartition CUs = partitionOf(T);
  bool Found = false;
  for (const ComputationalUnit &U : CUs.units())
    for (isa::Addr A : U.SharedWrites)
      if (A == P.addressOf("g"))
        Found = true;
  EXPECT_TRUE(Found);
}

TEST(CuPartition, SharedWritesAscendingAndUnique) {
  // One CU stores h, g, then h again (all shared): its shVars set lists
  // each word once, in address order.
  isa::Program P = assembleOrDie(R"(
.global g
.global h
.thread a
  li r1, 3
  st r1, [@h]
  st r1, [@g]
  st r1, [@h]
  halt
.thread b
  ld r8, [@g]
  ld r9, [@h]
  halt
)");
  ProgramTrace T = recordWithPrefix(P, sched({{0, 5}, {1, 3}}));
  CuPartition CUs = partitionOf(T);
  ASSERT_NE(CUs.unitOf(1), CuPartition::NoUnit);
  const ComputationalUnit &U = CUs.units()[CUs.unitOf(1)];
  EXPECT_EQ(U.Events.size(), 4u);
  std::vector<isa::Addr> Want = {P.addressOf("g"), P.addressOf("h")};
  std::sort(Want.begin(), Want.end());
  EXPECT_EQ(U.SharedWrites, Want);
}

TEST(CuPartition, ControlDependenceConnectsBody) {
  isa::Program P = assembleOrDie(R"(
.thread t
  li r1, 0
  bnez r1, skip
  li r2, 9
skip:
  halt
)");
  ProgramTrace T = recordRun(P);
  CuPartition CUs = partitionOf(T);
  // li r1 -> bnez (true dep), bnez -> li r2 (control dep): one CU.
  ASSERT_EQ(CUs.units().size(), 1u);
  EXPECT_EQ(CUs.units()[0].Events.size(), 3u);
}

TEST(CuPartition, SyncEventsBelongToNoUnit) {
  isa::Program P = assembleOrDie(R"(
.global g
.lock m
.thread t
  lock @m
  li r1, 1
  st r1, [@g]
  unlock @m
  halt
)");
  ProgramTrace T = recordRun(P);
  CuPartition CUs = partitionOf(T);
  for (uint32_t E = 0; E < T.size(); ++E) {
    bool IsStatement = T[E].Kind == EventKind::Load ||
                       T[E].Kind == EventKind::Store ||
                       T[E].Kind == EventKind::Alu ||
                       T[E].Kind == EventKind::Branch;
    if (IsStatement)
      EXPECT_NE(CUs.unitOf(E), CuPartition::NoUnit);
    else
      EXPECT_EQ(CUs.unitOf(E), CuPartition::NoUnit);
  }
}

TEST(CuPartition, BeginEndSeqBracketMembers) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread t x2
  ld r1, [@g]
  addi r1, r1, 1
  st r1, [@g]
  halt
)");
  ProgramTrace T = recordRun(P, 5);
  CuPartition CUs = partitionOf(T);
  for (const ComputationalUnit &U : CUs.units()) {
    ASSERT_FALSE(U.Events.empty());
    EXPECT_LE(U.BeginSeq, U.EndSeq);
    for (uint32_t E : U.Events) {
      EXPECT_GE(T[E].Seq, U.BeginSeq);
      EXPECT_LE(T[E].Seq, U.EndSeq);
      EXPECT_EQ(T[E].Tid, U.Tid);
      EXPECT_EQ(CUs.unitOf(E), U.Id);
    }
  }
}

TEST(CuPartition, LockedIterationsSplitAtSharedRaw) {
  // A locked increment loop re-reads the shared counter each iteration:
  // each read must start a fresh CU (the cut is at the CS boundary + 1).
  isa::Program P = assembleOrDie(R"(
.global counter
.lock m
.thread worker x2
  li r5, 3
loop:
  lock @m
  ld r1, [@counter]
  addi r1, r1, 1
  st r1, [@counter]
  unlock @m
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  ProgramTrace T = recordRun(P, 2);
  CuPartition CUs = partitionOf(T);
  // Each thread runs 3 iterations; at least 3 CUs per thread (each
  // iteration's ld starts a new one after the first).
  EXPECT_GE(unitsOfThread(CUs, 0), 3u);
  EXPECT_GE(unitsOfThread(CUs, 1), 3u);
  EXPECT_GT(CUs.meanUnitSize(), 1.0);
}

TEST(CuPartition, DescribeMentionsUnits) {
  isa::Program P = assembleOrDie(R"(
.thread t
  li r1, 1
  addi r1, r1, 1
  halt
)");
  ProgramTrace T = recordRun(P);
  CuPartition CUs = partitionOf(T);
  std::string D = CUs.describe(T);
  EXPECT_NE(D.find("CU 0"), std::string::npos);
  EXPECT_NE(D.find("addi"), std::string::npos);
}

TEST(CuPartition, MeanUnitSizeEmptyTraceIsZero) {
  isa::Program P = assembleOrDie(".thread t\n  halt\n");
  ProgramTrace T = recordRun(P);
  CuPartition CUs = partitionOf(T);
  EXPECT_EQ(CUs.meanUnitSize(), 0.0);
}

//===----------------------------------------------------------------------===//
// Storage differential: the flat union-find against the std::set /
// std::map one it replaced.
//===----------------------------------------------------------------------===//

namespace {

/// Figure 5 with per-event std::set shVars, a std::map from root to unit
/// and per-event incoming-arc vectors: the storage CuPartition::compute
/// replaced, kept here as the reference side.
struct ReferencePartition {
  std::vector<ComputationalUnit> Units;
  std::vector<uint32_t> EventUnit;
};

ReferencePartition referencePartition(const ProgramTrace &T,
                                      const pdg::DynamicPdg &G) {
  size_t N = T.size();
  std::vector<std::vector<uint32_t>> Incoming(N);
  for (uint32_t I = 0; I < G.arcs().size(); ++I)
    Incoming[G.arcs()[I].To].push_back(I);

  std::vector<uint32_t> Parent(N);
  std::vector<bool> Active(N, false);
  std::vector<std::set<isa::Addr>> ShVars(N);
  for (uint32_t I = 0; I < N; ++I)
    Parent[I] = I;
  auto Find = [&](uint32_t X) {
    while (Parent[X] != X)
      X = Parent[X] = Parent[Parent[X]];
    return X;
  };
  auto Merge = [&](uint32_t A, uint32_t B) {
    A = Find(A);
    B = Find(B);
    if (A == B)
      return;
    if (ShVars[A].size() < ShVars[B].size())
      std::swap(A, B);
    Parent[B] = A;
    Active[A] = Active[A] || Active[B];
    ShVars[A].insert(ShVars[B].begin(), ShVars[B].end());
    ShVars[B].clear();
  };
  auto IsStatement = [](const trace::TraceEvent &E) {
    return E.Kind == EventKind::Load || E.Kind == EventKind::Store ||
           E.Kind == EventKind::Alu || E.Kind == EventKind::Branch;
  };

  for (uint32_t E = 0; E < N; ++E) {
    const trace::TraceEvent &Ev = T[E];
    if (!IsStatement(Ev))
      continue;
    if (Ev.Kind == EventKind::Load)
      for (uint32_t ArcIdx : Incoming[E]) {
        const pdg::DepArc &A = G.arcs()[ArcIdx];
        if (A.Kind == pdg::DepKind::Conflict)
          continue;
        uint32_t Root = Find(A.From);
        if (Active[Root] && ShVars[Root].count(Ev.Address))
          Active[Root] = false;
      }
    for (uint32_t ArcIdx : Incoming[E]) {
      const pdg::DepArc &A = G.arcs()[ArcIdx];
      if (A.Kind != pdg::DepKind::Conflict && Active[Find(A.From)])
        Merge(E, A.From);
    }
    Active[Find(E)] = true;
    if (Ev.Kind == EventKind::Store && T.isSharedAddress(Ev.Address))
      ShVars[Find(E)].insert(Ev.Address);
  }

  ReferencePartition Out;
  Out.EventUnit.assign(N, CuPartition::NoUnit);
  std::map<uint32_t, uint32_t> RootToUnit;
  for (uint32_t E = 0; E < N; ++E) {
    if (!IsStatement(T[E]))
      continue;
    auto [It, Fresh] = RootToUnit.try_emplace(
        Find(E), static_cast<uint32_t>(Out.Units.size()));
    if (Fresh) {
      ComputationalUnit U;
      U.Id = It->second;
      U.Tid = T[E].Tid;
      U.BeginSeq = T[E].Seq;
      Out.Units.push_back(std::move(U));
    }
    ComputationalUnit &U = Out.Units[It->second];
    U.Events.push_back(E);
    U.EndSeq = std::max(U.EndSeq, T[E].Seq);
    Out.EventUnit[E] = U.Id;
  }
  for (auto &[Root, Unit] : RootToUnit)
    Out.Units[Unit].SharedWrites.assign(ShVars[Root].begin(),
                                        ShVars[Root].end());
  return Out;
}

} // namespace

TEST(CuPartition, MatchesSetAndMapReference) {
  testutil::forEachCorpusTrace([](const std::string &Label,
                                  const ProgramTrace &T) {
    SCOPED_TRACE(Label);
    pdg::DynamicPdg G = pdg::DynamicPdg::build(T);
    CuPartition CUs = CuPartition::compute(T, G);
    ReferencePartition Want = referencePartition(T, G);
    ASSERT_EQ(CUs.units().size(), Want.Units.size());
    size_t SharedWriters = 0;
    for (size_t I = 0; I < Want.Units.size(); ++I) {
      const ComputationalUnit &A = CUs.units()[I];
      const ComputationalUnit &B = Want.Units[I];
      ASSERT_EQ(A.Id, B.Id) << "unit " << I;
      EXPECT_EQ(A.Tid, B.Tid) << "unit " << I;
      EXPECT_EQ(A.Events, B.Events) << "unit " << I;
      EXPECT_EQ(A.BeginSeq, B.BeginSeq) << "unit " << I;
      EXPECT_EQ(A.EndSeq, B.EndSeq) << "unit " << I;
      EXPECT_EQ(A.SharedWrites, B.SharedWrites) << "unit " << I;
      SharedWriters += !B.SharedWrites.empty();
    }
    for (uint32_t E = 0; E < T.size(); ++E)
      ASSERT_EQ(CUs.unitOf(E), Want.EventUnit[E]) << "event " << E;
    // The corpus must exercise the shVars payload, not just the ids.
    EXPECT_GT(SharedWriters, 0u);
  });
}
