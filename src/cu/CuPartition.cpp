//===- cu/CuPartition.cpp -------------------------------------------------===//

#include "cu/CuPartition.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace svd;
using namespace svd::cu;
using pdg::DepArc;
using pdg::DepKind;
using support::formatString;
using trace::EventKind;
using trace::ProgramTrace;
using trace::TraceEvent;

namespace {

/// Union-find over event indices with per-root CU payload (the `active`
/// flag and shVars set of Figure 5's CU_T). A shVars set is a sorted
/// vector, allocated only for a root whose CU writes a shared word;
/// every other root's set is empty and costs one slot index.
class UnionFind {
public:
  explicit UnionFind(size_t N) : Parent(N), Active(N, 0), SetOf(N, NoSet) {
    for (size_t I = 0; I < N; ++I)
      Parent[I] = static_cast<uint32_t>(I);
  }

  uint32_t find(uint32_t X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }

  /// Merges the sets of \p A and \p B; returns the new root. The payload
  /// (active, shVars) is combined.
  uint32_t merge(uint32_t A, uint32_t B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return A;
    // Union by shVars size to bound copying.
    if (setSize(A) < setSize(B))
      std::swap(A, B);
    Parent[B] = A;
    Active[A] = Active[A] | Active[B];
    if (SetOf[B] != NoSet) {
      std::vector<isa::Addr> &Into = Sets[SetOf[A]];
      std::vector<isa::Addr> &From = Sets[SetOf[B]];
      size_t Mid = Into.size();
      Into.insert(Into.end(), From.begin(), From.end());
      std::inplace_merge(Into.begin(), Into.begin() + Mid, Into.end());
      Into.erase(std::unique(Into.begin(), Into.end()), Into.end());
      std::vector<isa::Addr>().swap(From);
      SetOf[B] = NoSet;
    }
    return A;
  }

  bool isActive(uint32_t X) { return Active[find(X)]; }
  void setActive(uint32_t X, bool V) { Active[find(X)] = V; }
  bool hasShVar(uint32_t X, isa::Addr A) {
    uint32_t S = SetOf[find(X)];
    return S != NoSet && std::binary_search(Sets[S].begin(), Sets[S].end(), A);
  }
  void addShVar(uint32_t X, isa::Addr A) {
    uint32_t Root = find(X);
    if (SetOf[Root] == NoSet) {
      SetOf[Root] = static_cast<uint32_t>(Sets.size());
      Sets.emplace_back();
    }
    std::vector<isa::Addr> &Sh = Sets[SetOf[Root]];
    auto It = std::lower_bound(Sh.begin(), Sh.end(), A);
    if (It == Sh.end() || *It != A)
      Sh.insert(It, A);
  }
  /// Moves out the shVars of \p Root, ascending.
  std::vector<isa::Addr> takeShVars(uint32_t Root) {
    return SetOf[Root] == NoSet ? std::vector<isa::Addr>()
                                : std::move(Sets[SetOf[Root]]);
  }

private:
  static constexpr uint32_t NoSet = UINT32_MAX;

  size_t setSize(uint32_t Root) const {
    return SetOf[Root] == NoSet ? 0 : Sets[SetOf[Root]].size();
  }

  std::vector<uint32_t> Parent;
  std::vector<uint8_t> Active;
  /// Per root: index into Sets, or NoSet for an empty shVars set.
  std::vector<uint32_t> SetOf;
  std::vector<std::vector<isa::Addr>> Sets;
};

/// Returns true for events that are dynamic statements (CU members).
bool isStatement(const TraceEvent &E) {
  switch (E.Kind) {
  case EventKind::Load:
  case EventKind::Store:
  case EventKind::Alu:
  case EventKind::Branch:
    return true;
  default:
    return false;
  }
}

} // namespace

CuPartition CuPartition::compute(const ProgramTrace &T,
                                 const pdg::DynamicPdg &G) {
  CuPartition Out;
  uint32_t N = static_cast<uint32_t>(T.size());
  Out.EventUnit.assign(N, NoUnit);
  UnionFind UF(N);

  // Figure 5, per thread trace, in execution order. Processing the global
  // order restricted to statements is equivalent since all inspected arcs
  // are intra-thread.
  for (uint32_t E = 0; E < N; ++E) {
    const TraceEvent &Ev = T[E];
    if (!isStatement(Ev))
      continue;

    // Lines 4-9: if s reads word v and some dependence predecessor's
    // active CU has v among its shared writes, that CU is cut here.
    if (Ev.Kind == EventKind::Load) {
      for (uint32_t ArcIdx : G.incoming(E)) {
        const DepArc &A = G.arcs()[ArcIdx];
        if (A.Kind == DepKind::Conflict)
          continue; // depPred holds true/control predecessors only
        uint32_t PredRoot = UF.find(A.From);
        if (UF.isActive(PredRoot) && UF.hasShVar(PredRoot, Ev.Address))
          UF.setActive(PredRoot, false);
      }
    }

    // Lines 10-13: merge the still-active predecessor CUs into s's CU.
    for (uint32_t ArcIdx : G.incoming(E)) {
      const DepArc &A = G.arcs()[ArcIdx];
      if (A.Kind == DepKind::Conflict)
        continue;
      if (UF.isActive(A.From))
        UF.merge(E, A.From);
    }

    // Line 14: the grown CU keeps connecting to future statements.
    UF.setActive(E, true);

    // Lines 15-16: record shared words written by the CU.
    if (Ev.Kind == EventKind::Store && T.isSharedAddress(Ev.Address))
      UF.addShVar(E, Ev.Address);
  }

  // Collect the final weakly connected components into CU records,
  // numbered in order of their first statement.
  std::vector<uint32_t> RootToUnit(N, NoUnit);
  std::vector<uint32_t> UnitRoot;
  for (uint32_t E = 0; E < N; ++E) {
    if (!isStatement(T[E]))
      continue;
    uint32_t Root = UF.find(E);
    uint32_t &Unit = RootToUnit[Root];
    if (Unit == NoUnit) {
      Unit = static_cast<uint32_t>(Out.Units.size());
      UnitRoot.push_back(Root);
      ComputationalUnit U;
      U.Id = Unit;
      U.Tid = T[E].Tid;
      U.BeginSeq = T[E].Seq;
      Out.Units.push_back(std::move(U));
    }
    ComputationalUnit &U = Out.Units[Unit];
    U.Events.push_back(E);
    U.EndSeq = std::max(U.EndSeq, T[E].Seq);
    Out.EventUnit[E] = U.Id;
  }
  for (ComputationalUnit &U : Out.Units)
    U.SharedWrites = UF.takeShVars(UnitRoot[U.Id]);
  return Out;
}

double CuPartition::meanUnitSize() const {
  if (Units.empty())
    return 0.0;
  size_t Total = 0;
  for (const ComputationalUnit &U : Units)
    Total += U.Events.size();
  return static_cast<double>(Total) / static_cast<double>(Units.size());
}

std::string CuPartition::describe(const ProgramTrace &T) const {
  std::string Out;
  for (const ComputationalUnit &U : Units) {
    Out += formatString("CU %u (thread %u, %zu stmts, seq %llu-%llu)",
                        U.Id, U.Tid, U.Events.size(),
                        static_cast<unsigned long long>(U.BeginSeq),
                        static_cast<unsigned long long>(U.EndSeq));
    if (!U.SharedWrites.empty()) {
      Out += " writes-shared:";
      for (isa::Addr A : U.SharedWrites)
        Out += " " + T.program().describeAddress(A);
    }
    Out += "\n";
    for (uint32_t E : U.Events)
      Out += formatString("    seq %llu pc %u: %s\n",
                          static_cast<unsigned long long>(T[E].Seq),
                          T[E].Pc,
                          isa::formatInstruction(*T[E].Instr).c_str());
  }
  return Out;
}
