//===- pdg/Pdg.cpp --------------------------------------------------------===//

#include "pdg/Pdg.h"

#include "isa/Cfg.h"
#include "shadow/Shadow.h"
#include "support/Error.h"

#include <array>
#include <cassert>

using namespace svd;
using namespace svd::pdg;
using isa::Addr;
using isa::Instruction;
using isa::Opcode;
using trace::EventKind;
using trace::ProgramTrace;
using trace::TraceEvent;

const char *pdg::depKindName(DepKind K) {
  switch (K) {
  case DepKind::TrueLocal:
    return "true-local";
  case DepKind::TrueShared:
    return "true-shared";
  case DepKind::Control:
    return "control";
  case DepKind::Conflict:
    return "conflict";
  }
  SVD_UNREACHABLE("unknown DepKind");
}

void DynamicPdg::addArc(const DepArc &A) {
  assert(A.From < A.To && "arcs must point forward in execution order");
  assert(A.To + 1 == InBegin.size() && "arcs are added in To order");
  Arcs.push_back(A);
}

size_t DynamicPdg::countArcs(DepKind K) const {
  size_t N = 0;
  for (const DepArc &A : Arcs)
    if (A.Kind == K)
      ++N;
  return N;
}

DynamicPdg DynamicPdg::build(const ProgramTrace &T) {
  DynamicPdg G;
  const isa::Program &P = T.program();
  uint32_t NumThreads = P.numThreads();
  uint32_t N = static_cast<uint32_t>(T.size());
  G.InBegin.clear();
  G.InBegin.reserve(size_t(N) + 1);
  G.Arcs.reserve(size_t(N) * 2);

  // The last-writer tables below hold event index + 1; the default
  // entry 0 means "none". The per-word ones are paged (shadow::Table),
  // so only the words the trace touches cost memory.

  // Register def-use, per thread.
  std::vector<std::array<uint32_t, isa::NumRegs>> LastRegWriter(NumThreads);

  // Last same-thread store per word (memory-carried true dependences).
  std::vector<shadow::Table<uint32_t>> LastLocalStore;
  LastLocalStore.reserve(NumThreads);
  for (uint32_t Tid = 0; Tid < NumThreads; ++Tid)
    LastLocalStore.emplace_back(P.MemoryWords);

  // Conflict-dependence state per word: the most recent write (any
  // thread) and the reads since it.
  struct WordState {
    uint32_t LastWrite = 0;
    std::vector<uint32_t> ReadsSinceWrite;
  };
  shadow::Table<WordState> Words(P.MemoryWords);

  // Dynamic control-dependence stacks: (branch event, reconvergence pc).
  struct CtrlFrame {
    uint32_t BranchEvent;
    uint32_t ReconvPc;
  };
  std::vector<std::vector<CtrlFrame>> CtrlStack(NumThreads);
  std::vector<isa::ThreadCfg> Cfgs;
  Cfgs.reserve(NumThreads);
  for (uint32_t Tid = 0; Tid < NumThreads; ++Tid)
    Cfgs.emplace_back(P.Threads[Tid].Code);

  auto AddTrueReg = [&](uint32_t Tid, isa::Reg R, uint32_t To) {
    if (R == isa::ZeroReg)
      return;
    if (uint32_t From = LastRegWriter[Tid][R])
      G.addArc({From - 1, To, DepKind::TrueLocal, /*ViaMemory=*/false, 0});
  };

  for (uint32_t E = 0; E < N; ++E) {
    G.InBegin.push_back(static_cast<uint32_t>(G.Arcs.size()));
    const TraceEvent &Ev = T[E];
    uint32_t Tid = Ev.Tid;

    if (Ev.Kind == EventKind::Lock || Ev.Kind == EventKind::Unlock ||
        Ev.Kind == EventKind::ThreadEnd)
      continue;

    // --- control dependences -------------------------------------------
    auto &Stack = CtrlStack[Tid];
    while (!Stack.empty() && Stack.back().ReconvPc == Ev.Pc)
      Stack.pop_back();
    if (!Stack.empty())
      G.addArc({Stack.back().BranchEvent, E, DepKind::Control,
                /*ViaMemory=*/false, 0});

    const Instruction &I = *Ev.Instr;

    // --- register-carried true dependences ------------------------------
    if (isa::readsRa(I.Op))
      AddTrueReg(Tid, I.Ra, E);
    if (isa::readsRb(I.Op))
      AddTrueReg(Tid, I.Rb, E);

    switch (Ev.Kind) {
    case EventKind::Load: {
      // Memory-carried true dependence from the last same-thread store.
      if (uint32_t From = LastLocalStore[Tid].peek(Ev.Address))
        G.addArc({From - 1, E,
                  T.isSharedAddress(Ev.Address) ? DepKind::TrueShared
                                                : DepKind::TrueLocal,
                  /*ViaMemory=*/true, Ev.Address});
      // Conflict: read after a remote write.
      WordState &W = Words.touch(Ev.Address);
      if (W.LastWrite && T[W.LastWrite - 1].Tid != Tid)
        G.addArc({W.LastWrite - 1, E, DepKind::Conflict,
                  /*ViaMemory=*/true, Ev.Address});
      W.ReadsSinceWrite.push_back(E);
      break;
    }
    case EventKind::Store: {
      // Conflict: write after remote write and after remote reads.
      WordState &W = Words.touch(Ev.Address);
      if (W.LastWrite && T[W.LastWrite - 1].Tid != Tid)
        G.addArc({W.LastWrite - 1, E, DepKind::Conflict,
                  /*ViaMemory=*/true, Ev.Address});
      for (uint32_t R : W.ReadsSinceWrite)
        if (T[R].Tid != Tid)
          G.addArc({R, E, DepKind::Conflict, /*ViaMemory=*/true,
                    Ev.Address});
      W.ReadsSinceWrite.clear();
      W.LastWrite = E + 1;
      LastLocalStore[Tid].touch(Ev.Address) = E + 1;
      break;
    }
    case EventKind::Branch: {
      if (isa::isConditionalBranch(I.Op)) {
        uint32_t R = Cfgs[Tid].preciseReconvergence(Ev.Pc);
        // Branches reconverging only at thread exit keep their frame for
        // the rest of the thread (the pc never equals NoNode).
        Stack.push_back({E, R});
      }
      break;
    }
    case EventKind::Alu:
      break;
    default:
      SVD_UNREACHABLE("unexpected event kind");
    }

    // --- register definition --------------------------------------------
    if (isa::writesRd(I.Op) && I.Rd != isa::ZeroReg)
      LastRegWriter[Tid][I.Rd] = E + 1;
  }
  G.InBegin.push_back(static_cast<uint32_t>(G.Arcs.size()));

  return G;
}
