//===- svd/HardwareSvd.cpp ------------------------------------------------===//

#include "svd/HardwareSvd.h"

#include "obs/Obs.h"
#include "support/Error.h"
#include "vm/Machine.h"

#include <algorithm>
#include <cassert>

using namespace svd;
using namespace svd::detect;
using cache::LineId;
using isa::Addr;
using isa::Instruction;
using vm::EventCtx;

namespace {

/// Registry adapter around one HardwareSvd instance.
class HardwareSvdDetector final : public Detector {
public:
  HardwareSvdDetector(const isa::Program &P, HardwareSvdConfig Cfg)
      : Impl(P, Cfg), Proofs(Cfg.Proofs) {}

  const char *name() const override { return "hwsvd"; }
  void attach(vm::Machine &M) override { M.addObserver(&Impl); }
  void beginEpoch() override { Impl.beginEpoch(); }
  uint64_t shadowPages() const override { return Impl.shadowPages(); }
  size_t shadowBytes() const override { return Impl.shadowBytes(); }
  const std::vector<Violation> &reports() const override {
    return Impl.violations();
  }
  const std::vector<CuLogEntry> &cuLog() const override {
    return Impl.cuLog();
  }
  size_t approxMemoryBytes() const override {
    return Impl.metadataBits() / 8;
  }
  uint64_t numCusFormed() const override { return Impl.numCusFormed(); }
  const DetectorHealth &health() const override {
    H.Degraded = Impl.degraded();
    H.Evictions = Impl.budgetEvictions();
    if (H.Degraded && H.Reason.empty())
      H.Reason = "cu table budget exceeded; oldest live CUs evicted";
    return H;
  }
  void exportStats(obs::Registry &R) const override {
    Detector::exportStats(R);
    const cache::CacheStats &S = Impl.cacheStats();
    R.counter("detect.hwsvd.cache.accesses").add(S.Accesses);
    R.counter("detect.hwsvd.cache.hits").add(S.Hits);
    R.counter("detect.hwsvd.cache.misses").add(S.Misses);
    R.counter("detect.hwsvd.cache.evictions").add(S.Evictions);
    R.counter("detect.hwsvd.cache.invalidations").add(S.Invalidations);
    R.counter("detect.hwsvd.metadata_evictions")
        .add(Impl.metadataEvictions());
    R.counter("detect.hwsvd.filtered_accesses")
        .add(Impl.filteredAccesses());
    // Present only when proofs were supplied (keeps proof-oblivious
    // configurations' exported stats byte-stable).
    if (Proofs) {
      R.counter("analysis.proven_cus").add(Proofs->proven().size());
      R.counter("svd.cu_pruned_events").add(Impl.prunedAccesses());
    }
  }

private:
  HardwareSvd Impl;
  const analysis::CuProofs *Proofs;
  mutable DetectorHealth H;
};

} // namespace

void detect::registerHardwareSvdDetector(DetectorRegistry &R) {
  R.add({"hwsvd", "HW-SVD",
         "cache-based SVD (Section 4.4; threads approximated by CPUs)",
         [](const isa::Program &P, const DetectorConfig *Cfg) {
           const auto *C = configAs<HardwareSvdDetectorConfig>(Cfg, "hwsvd");
           HardwareSvdConfig HC = C ? C->Hw : HardwareSvdConfig();
           if (C) {
             // Fold the shared StateBudget into the detector-native
             // knobs; detector-level fields win when explicitly set.
             const StateBudget &B = C->Budget;
             if (B.MaxStateEntries != 0 && HC.MaxCuEntries == 0)
               HC.MaxCuEntries = B.MaxStateEntries;
             if (B.Access && !HC.Access)
               HC.Access = B.Access;
             if (B.Proofs && !HC.Proofs)
               HC.Proofs = B.Proofs;
           }
           return std::make_unique<HardwareSvdDetector>(P, HC);
         }});
}

HardwareSvd::HardwareSvd(const isa::Program &P, HardwareSvdConfig Cfg)
    : Prog(P), Cfg(Cfg), Cache(Cfg.Cache), Ledger(Cfg.MaxCuEntries) {
  if (P.numThreads() > Cfg.Cache.NumCpus)
    support::fatalError("hardware SVD: more threads than CPUs");
  FilterActive =
      Cfg.Access != nullptr &&
      (uint32_t(1) << Cfg.Access->blockShift()) == Cfg.Cache.LineWords;
  // Proofs hold per thread; with the one-thread-per-CPU precondition
  // the CPU index *is* the thread id, so only the granularity gates.
  PruneActive =
      Cfg.Proofs != nullptr &&
      (uint32_t(1) << Cfg.Proofs->blockShift()) == Cfg.Cache.LineWords;
  uint32_t NumLines = Cache.lineOf(P.MemoryWords) + 1;
  shadow::Mode M =
      Cfg.DenseState ? shadow::Mode::Dense : shadow::Mode::Sparse;
  Cpus.reserve(Cfg.Cache.NumCpus);
  for (uint32_t Cpu = 0; Cpu < Cfg.Cache.NumCpus; ++Cpu)
    Cpus.emplace_back(NumLines, M);
  Cfgs.reserve(P.numThreads());
  for (const isa::ThreadCode &TC : P.Threads)
    Cfgs.emplace_back(TC.Code);
}

void HardwareSvd::beginEpoch() {
  for (PerCpu &C : Cpus)
    C.Lines.beginEpoch();
}

uint64_t HardwareSvd::shadowPages() const {
  uint64_t Pages = 0;
  for (const PerCpu &C : Cpus)
    Pages += C.Lines.pagesAllocated();
  return Pages;
}

size_t HardwareSvd::shadowBytes() const {
  size_t Bytes = 0;
  for (const PerCpu &C : Cpus)
    Bytes += C.Lines.approxMemoryBytes();
  return Bytes;
}

HardwareSvd::CuId HardwareSvd::find(PerCpu &C, CuId Id) const {
  if (Id == NoCu)
    return NoCu;
  while (C.Cus[Id].Parent != Id) {
    C.Cus[Id].Parent = C.Cus[C.Cus[Id].Parent].Parent;
    Id = C.Cus[Id].Parent;
  }
  return Id;
}

HardwareSvd::CuId HardwareSvd::newCu(PerCpu &C) {
  if (Ledger.overBudget(C.Budget.Live))
    evictOldestCu(C);
  CuId Id = static_cast<CuId>(C.Cus.size());
  C.Cus.push_back(CuData());
  C.Cus.back().Parent = Id;
  ++CuCreations;
  ++C.Budget.Live;
  return Id;
}

void HardwareSvd::evictOldestCu(PerCpu &C) {
  for (CuId Id = C.Budget.Cursor; Id < C.Cus.size(); ++Id) {
    if (C.Cus[Id].Parent != Id || C.Cus[Id].Dead)
      continue;
    C.Budget.Cursor = Id;
    deactivateCu(C, Id);
    Ledger.recordEviction();
    return;
  }
  C.Budget.Cursor = static_cast<CuId>(C.Cus.size());
}

HardwareSvd::CuId HardwareSvd::mergeCus(PerCpu &C, CuId A, CuId B) {
  A = find(C, A);
  B = find(C, B);
  if (A == B)
    return A;
  if (C.Cus[A].Rs.size() + C.Cus[A].Ws.size() <
      C.Cus[B].Rs.size() + C.Cus[B].Ws.size())
    std::swap(A, B);
  C.Cus[B].Parent = A;
  C.Cus[A].Rs.insert(C.Cus[B].Rs.begin(), C.Cus[B].Rs.end());
  C.Cus[A].Ws.insert(C.Cus[B].Ws.begin(), C.Cus[B].Ws.end());
  if (C.Cus[B].Conflict && !C.Cus[A].Conflict) {
    C.Cus[A].Conflict = true;
    C.Cus[A].ConflictTid = C.Cus[B].ConflictTid;
    C.Cus[A].ConflictPc = C.Cus[B].ConflictPc;
    C.Cus[A].ConflictSeq = C.Cus[B].ConflictSeq;
  }
  C.Cus[B].Rs.clear();
  C.Cus[B].Ws.clear();
  ++CuMerges;
  if (C.Budget.Live > 0)
    --C.Budget.Live;
  return A;
}

std::vector<HardwareSvd::CuId>
HardwareSvd::liveRoots(PerCpu &C, const std::vector<CuId> &Set) {
  std::vector<CuId> Out;
  for (CuId Id : Set) {
    CuId R = find(C, Id);
    if (R == NoCu || C.Cus[R].Dead)
      continue;
    if (std::find(Out.begin(), Out.end(), R) == Out.end())
      Out.push_back(R);
  }
  return Out;
}

void HardwareSvd::popControlFrames(PerCpu &C, uint32_t Pc) {
  while (!C.CtrlStack.empty() && C.CtrlStack.back().ReconvPc == Pc)
    C.CtrlStack.pop_back();
}

std::vector<HardwareSvd::CuId> HardwareSvd::controlCuSet(PerCpu &C) {
  std::vector<CuId> Out;
  for (const CtrlFrame &F : C.CtrlStack)
    for (CuId Id : F.CuSet) {
      CuId R = find(C, Id);
      if (R == NoCu || C.Cus[R].Dead)
        continue;
      if (std::find(Out.begin(), Out.end(), R) == Out.end())
        Out.push_back(R);
    }
  return Out;
}

void HardwareSvd::checkViolations(PerCpu &C, const EventCtx &Ctx,
                                  const std::vector<CuId> &CuSet) {
  for (CuId Id : CuSet) {
    CuData &CU = C.Cus[Id];
    if (!CU.Conflict)
      continue;
    Violation V;
    V.Seq = Ctx.Seq;
    V.Tid = Ctx.Tid;
    V.Pc = Ctx.Pc;
    V.OtherTid = CU.ConflictTid;
    V.OtherPc = CU.ConflictPc;
    V.OtherSeq = CU.ConflictSeq;
    // Attribute the first read-set line as the witness word.
    V.Address = CU.Rs.empty() ? 0
                              : static_cast<Addr>(*CU.Rs.begin())
                                    * Cfg.Cache.LineWords;
    Violations.push_back(V);
    CU.Conflict = false;
  }
}

void HardwareSvd::deactivateCu(PerCpu &C, CuId Id) {
  Id = find(C, Id);
  if (Id == NoCu || C.Cus[Id].Dead)
    return;
  CuData &CU = C.Cus[Id];
  CU.Dead = true;
  ++CuEndings;
  if (C.Budget.Live > 0)
    --C.Budget.Live;
  auto Reset = [&](const std::set<LineId> &Lines) {
    for (LineId L : Lines) {
      LineInfo &LI = C.Lines.touch(L);
      if (find(C, LI.Cu) != Id)
        continue;
      LI.State = Fsm::Idle;
      LI.Cu = NoCu;
    }
  };
  Reset(CU.Rs);
  Reset(CU.Ws);
  CU.Rs.clear();
  CU.Ws.clear();
  CU.Conflict = false;
}

void HardwareSvd::emitLog(isa::ThreadId Tid, const LineInfo &LI, LineId L,
                          uint64_t ReadSeq, uint32_t ReadPc) {
  if (!Cfg.KeepCuLog || LI.RemoteWritePc == UINT32_MAX)
    return;
  CuLogEntry E;
  E.Seq = ReadSeq;
  E.Tid = Tid;
  E.Pc = ReadPc;
  E.RemoteSeq = LI.RemoteWriteSeq;
  E.RemoteTid = LI.RemoteWriteTid;
  E.RemotePc = LI.RemoteWritePc;
  E.LocalSeq = LI.LocalWriteSeq;
  E.LocalPc = LI.LocalWritePc;
  E.Address = static_cast<Addr>(L) * Cfg.Cache.LineWords;
  CuLog.push_back(E);
}

void HardwareSvd::handleEviction(uint32_t Cpu, LineId Line) {
  // Untouched (or epoch-stale) lines read as Idle without
  // materializing a page.
  if (Cpus[Cpu].Lines.peek(Line).State == Fsm::Idle)
    return;
  // The metadata travels with the line: gone on eviction. The CU stays
  // alive (its table entry survives) but loses sight of this line.
  ++MetadataEvictions;
  Cpus[Cpu].Lines.touch(Line) = LineInfo();
}

void HardwareSvd::handleCoherence(uint32_t Cpu, LineId Line,
                                  bool RemoteIsWrite, const EventCtx &Ctx) {
  PerCpu &C = Cpus[Cpu];
  if (C.Lines.peek(Line).State == Fsm::Idle)
    return;
  LineInfo &LI = C.Lines.touch(Line);

  if (RemoteIsWrite) {
    LI.RemoteWriteTid = Ctx.Tid;
    LI.RemoteWritePc = Ctx.Pc;
    LI.RemoteWriteSeq = Ctx.Seq;
  }

  bool LocalWrote = LI.State == Fsm::Stored ||
                    LI.State == Fsm::StoredShared ||
                    LI.State == Fsm::TrueDep;
  if (RemoteIsWrite || LocalWrote) {
    CuId Id = find(C, LI.Cu);
    if (Id != NoCu && !C.Cus[Id].Dead) {
      C.Cus[Id].Conflict = true;
      C.Cus[Id].ConflictTid = Ctx.Tid;
      C.Cus[Id].ConflictPc = Ctx.Pc;
      C.Cus[Id].ConflictSeq = Ctx.Seq;
    }
  }

  switch (LI.State) {
  case Fsm::Loaded:
    LI.State = Fsm::LoadedShared;
    break;
  case Fsm::Stored:
    LI.State = Fsm::StoredShared;
    break;
  case Fsm::TrueDep:
    if (RemoteIsWrite)
      emitLog(static_cast<isa::ThreadId>(Cpu), LI, Line, LI.LocalReadSeq,
              LI.LocalReadPc);
    deactivateCu(C, LI.Cu);
    LI.State = Fsm::Idle;
    LI.Cu = NoCu;
    break;
  case Fsm::LoadedShared:
  case Fsm::StoredShared:
    break;
  case Fsm::Idle:
    SVD_UNREACHABLE("filtered above");
  }
}

void HardwareSvd::driveCache(const EventCtx &Ctx, Addr A, bool IsWrite) {
  cache::AccessResult R = Cache.access(Ctx.Tid, A, IsWrite);
  if (R.EvictedValid)
    handleEviction(Ctx.Tid, R.EvictedLine);
  LineId Line = Cache.lineOf(A);
  for (uint32_t Cpu : R.Invalidated)
    handleCoherence(Cpu, Line, IsWrite, Ctx);
  for (uint32_t Cpu : R.Downgraded)
    handleCoherence(Cpu, Line, IsWrite, Ctx);
}

void HardwareSvd::onLoad(const EventCtx &Ctx, Addr A, isa::Word) {
  PerCpu &C = Cpus[Ctx.Tid];
  popControlFrames(C, Ctx.Pc);
  driveCache(Ctx, A, /*IsWrite=*/false);
  LineId Line = Cache.lineOf(A);
  LineInfo &LI = C.Lines.touch(Line);

  // Provably-thread-local fast path: the line never sees coherence
  // traffic from other CPUs, so only the CU linkage through registers
  // must run. Keeping the line's FSM Idle means evictions cannot wipe
  // the CU reference — the register path carries it, as the paper's
  // hardware sketch piggybacks CU propagation on the data path.
  if (isFilteredLocal(Ctx)) {
    ++FilteredLoads;
    CuId Id = find(C, LI.Cu);
    if (Id == NoCu || C.Cus[Id].Dead)
      Id = newCu(C);
    LI.Cu = Id;
    const Instruction &I = *Ctx.Instr;
    if (I.Rd != isa::ZeroReg) {
      C.RegSets[I.Rd].clear();
      C.RegSets[I.Rd].push_back(Id);
    }
    return;
  }

  // ProvenAtomic fast path: the alias-group fixpoint prunes every
  // access that could reach this line program-wide, so its coherence
  // messages only ever find Idle peer lines — only the CU linkage
  // through registers must run (cache already driven above).
  if (isProvenCu(Ctx)) {
    ++PrunedLoads;
    CuId Id = find(C, LI.Cu);
    if (Id == NoCu || C.Cus[Id].Dead)
      Id = newCu(C);
    LI.Cu = Id;
    const Instruction &I = *Ctx.Instr;
    if (I.Rd != isa::ZeroReg) {
      C.RegSets[I.Rd].clear();
      C.RegSets[I.Rd].push_back(Id);
    }
    return;
  }

  if (LI.State == Fsm::StoredShared) {
    if (LI.RemoteWritePc != UINT32_MAX &&
        LI.RemoteWriteSeq > LI.LocalWriteSeq)
      emitLog(Ctx.Tid, LI, Line, Ctx.Seq, Ctx.Pc);
    deactivateCu(C, LI.Cu);
    LI.State = Fsm::Idle;
    LI.Cu = NoCu;
  }

  switch (LI.State) {
  case Fsm::Idle:
    LI.State = Fsm::Loaded;
    break;
  case Fsm::Stored:
    LI.State = Fsm::TrueDep;
    break;
  default:
    break;
  }

  CuId Id = find(C, LI.Cu);
  if (Id == NoCu || C.Cus[Id].Dead)
    Id = newCu(C);
  C.Cus[Id].Rs.insert(Line);
  LI.Cu = Id;
  const Instruction &I = *Ctx.Instr;
  if (I.Rd != isa::ZeroReg) {
    C.RegSets[I.Rd].clear();
    C.RegSets[I.Rd].push_back(Id);
  }
  LI.LocalReadPc = Ctx.Pc;
  LI.LocalReadSeq = Ctx.Seq;
}

void HardwareSvd::onStore(const EventCtx &Ctx, Addr A, isa::Word) {
  PerCpu &C = Cpus[Ctx.Tid];
  popControlFrames(C, Ctx.Pc);
  driveCache(Ctx, A, /*IsWrite=*/true);
  LineId Line = Cache.lineOf(A);
  const Instruction &I = *Ctx.Instr;

  std::vector<CuId> DataSet = liveRoots(C, C.RegSets[I.Rb]);
  std::vector<CuId> CheckSet = DataSet;
  if (Cfg.UseAddressDeps)
    for (CuId Id : liveRoots(C, C.RegSets[I.Ra]))
      if (std::find(CheckSet.begin(), CheckSet.end(), Id) ==
          CheckSet.end())
        CheckSet.push_back(Id);
  if (Cfg.UseControlDeps)
    for (CuId Id : controlCuSet(C))
      if (std::find(CheckSet.begin(), CheckSet.end(), Id) ==
          CheckSet.end())
        CheckSet.push_back(Id);

  checkViolations(C, Ctx, CheckSet);

  CuId Id;
  if (DataSet.empty()) {
    Id = newCu(C);
  } else {
    Id = DataSet[0];
    for (size_t K = 1; K < DataSet.size(); ++K)
      Id = mergeCus(C, Id, DataSet[K]);
  }

  LineInfo &LI = C.Lines.touch(Line);

  // Provably-thread-local fast path: the strict-2PL check and the CU
  // merge above already ran; the stored line itself needs no FSM or
  // write-set entry since no other CPU can ever conflict on it.
  if (isFilteredLocal(Ctx)) {
    ++FilteredStores;
    LI.Cu = Id;
    return;
  }

  // ProvenAtomic fast path — the strict-2PL check and data-CU merge
  // already ran; the line-side FSM/write-set work is dead for a
  // consistently pruned alias group.
  if (isProvenCu(Ctx)) {
    ++PrunedStores;
    LI.Cu = Id;
    return;
  }

  C.Cus[Id].Ws.insert(Line);
  LI.Cu = Id;
  switch (LI.State) {
  case Fsm::Idle:
  case Fsm::Loaded:
    LI.State = Fsm::Stored;
    break;
  case Fsm::LoadedShared:
    LI.State = Fsm::StoredShared;
    break;
  default:
    break;
  }
  LI.LocalWritePc = Ctx.Pc;
  LI.LocalWriteSeq = Ctx.Seq;
}

void HardwareSvd::onAlu(const EventCtx &Ctx) {
  PerCpu &C = Cpus[Ctx.Tid];
  popControlFrames(C, Ctx.Pc);
  const Instruction &I = *Ctx.Instr;
  if (!isa::writesRd(I.Op) || I.Rd == isa::ZeroReg)
    return;
  std::vector<CuId> Out;
  if (isa::readsRa(I.Op) && I.Ra != isa::ZeroReg)
    Out = C.RegSets[I.Ra];
  if (isa::readsRb(I.Op) && I.Rb != isa::ZeroReg)
    for (CuId Id : C.RegSets[I.Rb])
      if (std::find(Out.begin(), Out.end(), Id) == Out.end())
        Out.push_back(Id);
  C.RegSets[I.Rd] = std::move(Out);
}

void HardwareSvd::onBranch(const EventCtx &Ctx, bool, uint32_t) {
  PerCpu &C = Cpus[Ctx.Tid];
  popControlFrames(C, Ctx.Pc);
  const Instruction &I = *Ctx.Instr;
  if (!isa::isConditionalBranch(I.Op) || !Cfg.UseControlDeps)
    return;
  uint32_t Reconv = Cfg.SkipperReconvergence
                        ? Cfgs[Ctx.Tid].skipperReconvergence(Ctx.Pc)
                        : Cfgs[Ctx.Tid].preciseReconvergence(Ctx.Pc);
  if (Reconv == isa::ThreadCfg::NoNode)
    return;
  CtrlFrame F;
  F.CuSet = liveRoots(C, C.RegSets[I.Ra]);
  F.ReconvPc = Reconv;
  if (C.CtrlStack.size() >= Cfg.MaxControlStackDepth)
    C.CtrlStack.erase(C.CtrlStack.begin());
  C.CtrlStack.push_back(std::move(F));
}

void HardwareSvd::onLock(const EventCtx &Ctx, uint32_t) {
  popControlFrames(Cpus[Ctx.Tid], Ctx.Pc);
}

void HardwareSvd::onUnlock(const EventCtx &Ctx, uint32_t) {
  popControlFrames(Cpus[Ctx.Tid], Ctx.Pc);
}

void HardwareSvd::onThreadFinished(const EventCtx &Ctx) {
  PerCpu &C = Cpus[Ctx.Tid];
  C.CtrlStack.clear();
  for (auto &RS : C.RegSets)
    RS.clear();
}

size_t HardwareSvd::metadataBits() const {
  // Per cache line: 3-bit FSM + 16-bit CU reference.
  size_t Bits = Cache.totalLines() * (3 + 16);
  // CU table: assume 256 entries per CPU of (2 x 16-bit set summaries +
  // conflict bit + 32-bit pc) — a coarse hardware budget.
  Bits += static_cast<size_t>(Cfg.Cache.NumCpus) * 256 * (16 + 16 + 1 + 32);
  return Bits;
}
