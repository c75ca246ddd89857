//===- svd/OnlineSvd.cpp --------------------------------------------------===//

#include "svd/OnlineSvd.h"

#include "obs/Obs.h"
#include "support/Error.h"
#include "vm/Machine.h"

#include <algorithm>
#include <cassert>

using namespace svd;
using namespace svd::detect;
using isa::Addr;
using isa::Instruction;
using isa::Opcode;
using isa::ThreadId;
using vm::EventCtx;

namespace {

/// Registry adapter around one OnlineSvd instance.
class OnlineSvdDetector final : public Detector {
public:
  OnlineSvdDetector(const isa::Program &P, OnlineSvdConfig Cfg)
      : Impl(P, Cfg), Proofs(Cfg.Proofs) {}

  const char *name() const override { return "svd"; }
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
    return Impl.approxMemoryBytes();
  }
  uint64_t numCusFormed() const override { return Impl.numCusFormed(); }
  const DetectorHealth &health() const override {
    H.Degraded = Impl.degraded();
    H.Evictions = Impl.budgetEvictions();
    if (H.Degraded && H.Reason.empty())
      H.Reason = "cu budget exceeded; oldest live CUs evicted";
    return H;
  }
  void exportStats(obs::Registry &R) const override {
    Detector::exportStats(R);
    R.counter("detect.svd.events").add(Impl.eventsObserved());
    R.counter("detect.svd.filtered_loads").add(Impl.filteredLoads());
    R.counter("detect.svd.filtered_stores").add(Impl.filteredStores());
    R.counter("detect.svd.cus_ended").add(Impl.numCusEnded());
    // Proof-pruning counters exist only when proofs were supplied, so
    // configurations that never heard of pruning keep their exported
    // stats (and the goldens pinning them) byte-stable.
    if (Proofs) {
      R.counter("analysis.proven_cus").add(Proofs->proven().size());
      R.counter("svd.cu_pruned_events").add(Impl.prunedAccesses());
    }
  }

private:
  OnlineSvd Impl;
  const analysis::CuProofs *Proofs;
  mutable DetectorHealth H;
};

} // namespace

void detect::registerOnlineSvdDetector(DetectorRegistry &R) {
  R.add({"svd", "SVD", "online serializability violation detector (Fig. 7)",
         [](const isa::Program &P, const DetectorConfig *Cfg) {
           const auto *C = configAs<OnlineSvdDetectorConfig>(Cfg, "svd");
           OnlineSvdConfig SC = C ? C->Svd : OnlineSvdConfig();
           if (C) {
             // Fold the shared StateBudget into the detector-native
             // knobs; detector-level fields win when explicitly set.
             const StateBudget &B = C->Budget;
             if (B.MaxStateEntries != 0 && SC.MaxCuEntries == 0)
               SC.MaxCuEntries = B.MaxStateEntries;
             if (B.Access && !SC.Access)
               SC.Access = B.Access;
             if (B.Proofs && !SC.Proofs)
               SC.Proofs = B.Proofs;
           }
           return std::make_unique<OnlineSvdDetector>(P, SC);
         }});
}

OnlineSvd::OnlineSvd(const isa::Program &P, OnlineSvdConfig Cfg)
    : Prog(P), Cfg(Cfg),
      NumBlocks(static_cast<uint32_t>((P.MemoryWords >> Cfg.BlockShift) + 1)),
      Trackers(NumBlocks,
               Cfg.DenseState ? shadow::Mode::Dense : shadow::Mode::Sparse),
      Ledger(Cfg.MaxCuEntries) {
  // The static table's locality proofs hold at its own block granularity
  // and per thread; refuse mismatched tables and the CPU approximation
  // (a migrating thread raises remote events against its own blocks).
  FilterActive = Cfg.Access != nullptr &&
                 Cfg.Access->blockShift() == Cfg.BlockShift &&
                 Cfg.NumCpus == 0;
  // Same contract for the atomicity proofs (they, too, hold at one block
  // granularity and speak about threads, not processors).
  PruneActive = Cfg.Proofs != nullptr &&
                Cfg.Proofs->blockShift() == Cfg.BlockShift &&
                Cfg.NumCpus == 0;
  shadow::Mode M =
      Cfg.DenseState ? shadow::Mode::Dense : shadow::Mode::Sparse;
  uint32_t Lanes = Cfg.NumCpus != 0 ? Cfg.NumCpus : P.numThreads();
  Threads.reserve(Lanes);
  for (uint32_t L = 0; L < Lanes; ++L)
    Threads.emplace_back(NumBlocks, M);
  Cfgs.reserve(P.numThreads());
  for (const isa::ThreadCode &TC : P.Threads)
    Cfgs.emplace_back(TC.Code);
}

void OnlineSvd::beginEpoch() {
  for (PerThread &T : Threads)
    T.Blocks.beginEpoch();
  Trackers.beginEpoch();
}

uint64_t OnlineSvd::shadowPages() const {
  uint64_t Pages = Trackers.pagesAllocated();
  for (const PerThread &T : Threads)
    Pages += T.Blocks.pagesAllocated();
  return Pages;
}

size_t OnlineSvd::shadowBytes() const {
  size_t Bytes = Trackers.approxMemoryBytes();
  for (const PerThread &T : Threads)
    Bytes += T.Blocks.approxMemoryBytes();
  return Bytes;
}

OnlineSvd::CuId OnlineSvd::find(PerThread &T, CuId C) const {
  if (C == NoCu)
    return NoCu;
  while (T.Cus[C].Parent != C) {
    T.Cus[C].Parent = T.Cus[T.Cus[C].Parent].Parent;
    C = T.Cus[C].Parent;
  }
  return C;
}

OnlineSvd::CuId OnlineSvd::newCu(PerThread &T) {
  if (Ledger.overBudget(T.Budget.Live))
    evictOldestCu(T);
  CuId C = static_cast<CuId>(T.Cus.size());
  T.Cus.push_back(CuData());
  T.Cus.back().Parent = C;
  ++CuCreations;
  ++T.Budget.Live;
  return C;
}

void OnlineSvd::evictOldestCu(PerThread &T) {
  // Scan forward from the cursor for the oldest live root; ids behind
  // the cursor can never become eligible again (see PerThread).
  for (CuId C = T.Budget.Cursor; C < T.Cus.size(); ++C) {
    if (T.Cus[C].Parent != C || T.Cus[C].Dead)
      continue;
    T.Budget.Cursor = C;
    uint32_t Lane = static_cast<uint32_t>(&T - Threads.data());
    deactivateCu(T, Lane, C);
    Ledger.recordEviction();
    return;
  }
  T.Budget.Cursor = static_cast<CuId>(T.Cus.size());
}

OnlineSvd::CuId OnlineSvd::mergeCus(PerThread &T, CuId A, CuId B) {
  A = find(T, A);
  B = find(T, B);
  if (A == B)
    return A;
  assert(!T.Cus[A].Dead && !T.Cus[B].Dead && "merging a dead CU");
  // Union by block-set size to bound copying.
  if (T.Cus[A].Rs.size() + T.Cus[A].Ws.size() <
      T.Cus[B].Rs.size() + T.Cus[B].Ws.size())
    std::swap(A, B);
  T.Cus[B].Parent = A;
  T.Cus[A].Rs.insert(T.Cus[B].Rs.begin(), T.Cus[B].Rs.end());
  T.Cus[A].Ws.insert(T.Cus[B].Ws.begin(), T.Cus[B].Ws.end());
  T.Cus[B].Rs.clear();
  T.Cus[B].Ws.clear();
  ++CuMerges;
  if (T.Budget.Live > 0)
    --T.Budget.Live;
  return A;
}

std::vector<OnlineSvd::CuId>
OnlineSvd::liveRoots(PerThread &T, const std::vector<CuId> &Set) {
  std::vector<CuId> Out;
  for (CuId C : Set) {
    CuId R = find(T, C);
    if (R == NoCu || T.Cus[R].Dead)
      continue;
    if (std::find(Out.begin(), Out.end(), R) == Out.end())
      Out.push_back(R);
  }
  return Out;
}

void OnlineSvd::popControlFrames(PerThread &T, uint32_t Pc) {
  while (!T.CtrlStack.empty() && T.CtrlStack.back().ReconvPc == Pc)
    T.CtrlStack.pop_back();
}

std::vector<OnlineSvd::CuId> OnlineSvd::controlCuSet(PerThread &T) {
  // ctrl_dep_from_stack(): aggregate every frame's cuSet.
  std::vector<CuId> Out;
  for (const CtrlFrame &F : T.CtrlStack)
    for (CuId C : F.CuSet) {
      CuId R = find(T, C);
      if (R == NoCu || T.Cus[R].Dead)
        continue;
      if (std::find(Out.begin(), Out.end(), R) == Out.end())
        Out.push_back(R);
    }
  return Out;
}

void OnlineSvd::checkViolations(PerThread &T, const EventCtx &Ctx,
                                const std::vector<CuId> &CuSet) {
  for (CuId C : CuSet) {
    const CuData &CU = T.Cus[C];
    auto CheckBlocks = [&](const std::set<BlockId> &Blocks) {
      for (BlockId B : Blocks) {
        // Peek first: most blocks have no pending conflict, and a CU
        // block set may reference pages older than the current epoch.
        if (!T.Blocks.peek(B).Conflict)
          continue;
        BlockInfo &BI = T.Blocks.touch(B);
        Violation V;
        V.Seq = Ctx.Seq;
        V.Tid = Ctx.Tid;
        V.Pc = Ctx.Pc;
        V.OtherTid = BI.ConflictTid;
        V.OtherPc = BI.ConflictPc;
        V.OtherSeq = BI.ConflictSeq;
        V.Address = static_cast<Addr>(B) << Cfg.BlockShift;
        Violations.push_back(V);
        // One dynamic report per conflict occurrence.
        BI.Conflict = false;
      }
    };
    CheckBlocks(CU.Rs);
    if (!Cfg.CheckInputBlocksOnly)
      CheckBlocks(CU.Ws);
  }
}

void OnlineSvd::deactivateCu(PerThread &T, ThreadId Tid, CuId C) {
  C = find(T, C);
  if (C == NoCu || T.Cus[C].Dead)
    return;
  CuData &CU = T.Cus[C];
  CU.Dead = true;
  ++CuEndings;
  if (T.Budget.Live > 0)
    --T.Budget.Live;
  auto ResetBlocks = [&](const std::set<BlockId> &Blocks) {
    for (BlockId B : Blocks) {
      BlockInfo &BI = T.Blocks.touch(B);
      // A block may have been handed to a newer CU already; leave those.
      if (find(T, BI.Cu) != C)
        continue;
      BI.State = Fsm::Idle;
      BI.Cu = NoCu;
      BI.Conflict = false;
      Trackers.touch(B) &= ~(uint64_t(1) << (Tid % 64));
    }
  };
  ResetBlocks(CU.Rs);
  ResetBlocks(CU.Ws);
  CU.Rs.clear();
  CU.Ws.clear();
}

void OnlineSvd::emitLog(const EventCtx &S, const BlockInfo &BI, BlockId B,
                        uint64_t ReadSeqOverride,
                        uint32_t ReadPcOverride) {
  if (!Cfg.KeepCuLog)
    return;
  if (BI.RemoteWritePc == UINT32_MAX)
    return; // no remote write: nothing was overwritten
  CuLogEntry E;
  if (ReadPcOverride != UINT32_MAX) {
    E.Seq = ReadSeqOverride;
    E.Pc = ReadPcOverride;
  } else {
    E.Seq = S.Seq;
    E.Pc = S.Pc;
  }
  E.Tid = S.Tid;
  E.RemoteSeq = BI.RemoteWriteSeq;
  E.RemoteTid = BI.RemoteWriteTid;
  E.RemotePc = BI.RemoteWritePc;
  E.LocalSeq = BI.LocalWriteSeq;
  E.LocalPc = BI.LocalWritePc;
  E.Address = static_cast<Addr>(B) << Cfg.BlockShift;
  CuLog.push_back(E);
}

void OnlineSvd::handleRemote(ThreadId Tid, BlockId B, bool IsWrite,
                             const EventCtx &Ctx) {
  PerThread &T = Threads[Tid];
  // An untouched (or epoch-stale) block reads as Idle without
  // materializing anything; only engaged blocks pay for the touch.
  if (T.Blocks.peek(B).State == Fsm::Idle)
    return;
  BlockInfo &BI = T.Blocks.touch(B);

  if (IsWrite) {
    BI.RemoteWriteTid = Ctx.Tid;
    BI.RemoteWritePc = Ctx.Pc;
    BI.RemoteWriteSeq = Ctx.Seq;
  }

  // Conflict iff the remote access is a write, or this thread wrote the
  // block (remote read vs. local write).
  bool LocalWrote = BI.State == Fsm::Stored || BI.State == Fsm::StoredShared ||
                    BI.State == Fsm::TrueDep;
  if (IsWrite || LocalWrote) {
    BI.Conflict = true;
    BI.ConflictTid = Ctx.Tid;
    BI.ConflictPc = Ctx.Pc;
    BI.ConflictSeq = Ctx.Seq;
  }

  switch (BI.State) {
  case Fsm::Loaded:
    BI.State = Fsm::LoadedShared;
    break;
  case Fsm::Stored:
    BI.State = Fsm::StoredShared;
    break;
  case Fsm::TrueDep:
    // Figure 7 line 30-31: a consumed local RAW turned out to be on a
    // shared word — the CU ends; log the (s, rw, lw) triple using the
    // recorded local read.
    if (IsWrite) {
      EventCtx Local;
      Local.Tid = Tid;
      emitLog(Local, BI, B, BI.LocalReadSeq, BI.LocalReadPc);
    }
    deactivateCu(T, Tid, BI.Cu);
    BI.State = Fsm::Idle;
    BI.Cu = NoCu;
    BI.Conflict = false;
    break;
  case Fsm::LoadedShared:
  case Fsm::StoredShared:
    break;
  case Fsm::Idle:
    SVD_UNREACHABLE("filtered above");
  }
}

void OnlineSvd::broadcastRemote(const EventCtx &Ctx, BlockId B,
                                bool IsWrite) {
  uint64_t Mask = Trackers.peek(B);
  if (Threads.size() <= 64) {
    Mask &= ~(uint64_t(1) << laneOf(Ctx));
    while (Mask) {
      unsigned Tid = static_cast<unsigned>(__builtin_ctzll(Mask));
      Mask &= Mask - 1;
      handleRemote(Tid, B, IsWrite, Ctx);
    }
    return;
  }
  // Fallback for very wide machines: scan.
  for (uint32_t Lane = 0; Lane < Threads.size(); ++Lane)
    if (Lane != laneOf(Ctx) &&
        Threads[Lane].Blocks.peek(B).State != Fsm::Idle)
      handleRemote(Lane, B, IsWrite, Ctx);
}

void OnlineSvd::onLoad(const EventCtx &Ctx, Addr A, isa::Word) {
  ++Events;
  PerThread &T = Threads[laneOf(Ctx)];
  popControlFrames(T, Ctx.Pc);
  BlockId B = blockOf(A);
  BlockInfo &BI = T.Blocks.touch(B);

  // Provably-thread-local fast path: no remote access can ever touch
  // this block, so its FSM never leaves Idle, it never conflicts, and
  // broadcasting it is a no-op. Only the true-dependence plumbing that
  // links CUs through local data must run: join the block's CU and tag
  // the destination register, exactly as the full path would.
  if (isFilteredLocal(Ctx)) {
    ++FilteredLoads;
    CuId C = find(T, BI.Cu);
    if (C == NoCu || T.Cus[C].Dead)
      C = newCu(T);
    BI.Cu = C;
    const Instruction &I = *Ctx.Instr;
    if (I.Rd != isa::ZeroReg) {
      T.RegSets[I.Rd].clear();
      T.RegSets[I.Rd].push_back(C);
    }
    return;
  }

  // ProvenAtomic fast path: the two-phase-locking proof plus the
  // alias-group fixpoint guarantee every access that could reach this
  // block is pruned too, so its FSM would only ever see local events,
  // never conflict, and never feed the CU log. As with the thread-local
  // filter, only the true-dependence plumbing runs.
  if (isProvenCu(Ctx)) {
    ++PrunedLoads;
    CuId C = find(T, BI.Cu);
    if (C == NoCu || T.Cus[C].Dead)
      C = newCu(T);
    BI.Cu = C;
    const Instruction &I = *Ctx.Instr;
    if (I.Rd != isa::ZeroReg) {
      T.RegSets[I.Rd].clear();
      T.RegSets[I.Rd].push_back(C);
    }
    return;
  }

  // Shared dependence: a load on a Stored_Shared block ends the CU
  // (Figure 7 lines 5-6) and feeds the a-posteriori log if a remote
  // write intervened after the local one.
  if (BI.State == Fsm::StoredShared) {
    if (BI.RemoteWritePc != UINT32_MAX &&
        BI.RemoteWriteSeq > BI.LocalWriteSeq)
      emitLog(Ctx, BI, B);
    deactivateCu(T, laneOf(Ctx), BI.Cu);
    // The deactivation resets every block the CU still owns; make this
    // block's reset unconditional in case it was handed to a newer CU.
    BI.State = Fsm::Idle;
    BI.Cu = NoCu;
    BI.Conflict = false;
  }

  // FSM transition for the local load.
  switch (BI.State) {
  case Fsm::Idle:
    BI.State = Fsm::Loaded;
    break;
  case Fsm::Stored:
    BI.State = Fsm::TrueDep;
    break;
  case Fsm::Loaded:
  case Fsm::LoadedShared:
  case Fsm::TrueDep:
    break;
  case Fsm::StoredShared:
    SVD_UNREACHABLE("reset to Idle above");
  }

  // Join the block's CU (creating one for fresh blocks), tag the
  // destination register (Figure 7 lines 7-8).
  CuId C = find(T, BI.Cu);
  if (C == NoCu || T.Cus[C].Dead)
    C = newCu(T);
  T.Cus[C].Rs.insert(B);
  BI.Cu = C;
  const Instruction &I = *Ctx.Instr;
  if (I.Rd != isa::ZeroReg) {
    T.RegSets[I.Rd].clear();
    T.RegSets[I.Rd].push_back(C);
  }

  BI.LocalReadPc = Ctx.Pc;
  BI.LocalReadSeq = Ctx.Seq;
  Trackers.touch(B) |= uint64_t(1) << (laneOf(Ctx) % 64);

  broadcastRemote(Ctx, B, /*IsWrite=*/false);
}

void OnlineSvd::onStore(const EventCtx &Ctx, Addr A, isa::Word) {
  ++Events;
  PerThread &T = Threads[laneOf(Ctx)];
  popControlFrames(T, Ctx.Pc);
  BlockId B = blockOf(A);
  const Instruction &I = *Ctx.Instr;

  // Gather the data, address, and control CU sets (Figure 7 lines 15-17).
  std::vector<CuId> DataSet = liveRoots(T, T.RegSets[I.Rb]);
  std::vector<CuId> CheckSet = DataSet;
  if (Cfg.UseAddressDeps)
    for (CuId C : liveRoots(T, T.RegSets[I.Ra]))
      if (std::find(CheckSet.begin(), CheckSet.end(), C) == CheckSet.end())
        CheckSet.push_back(C);
  if (Cfg.UseControlDeps)
    for (CuId C : controlCuSet(T))
      if (std::find(CheckSet.begin(), CheckSet.end(), C) == CheckSet.end())
        CheckSet.push_back(C);

  // Strict-2PL check (line 18).
  checkViolations(T, Ctx, CheckSet);

  // merge_and_update over the data CU set only (lines 20-21; Section 4.3:
  // CUs are connected via true dependences only).
  CuId C;
  if (DataSet.empty()) {
    C = newCu(T);
  } else {
    C = DataSet[0];
    for (size_t Idx = 1; Idx < DataSet.size(); ++Idx)
      C = mergeCus(T, C, DataSet[Idx]);
  }

  BlockInfo &BI = T.Blocks.touch(B);

  // Provably-thread-local fast path. The violation check and the CU
  // merge above already ran — they concern the CUs this store depends
  // on, not the stored block — so only the block-side bookkeeping is
  // skipped: a local block never conflicts (its Ws membership is dead
  // weight), its FSM never matters, and no remote needs to hear of it.
  if (isFilteredLocal(Ctx)) {
    ++FilteredStores;
    BI.Cu = C;
    return;
  }

  // ProvenAtomic fast path — same reasoning as the load side: the
  // dependence-relevant work (violation check, data-CU merge) already
  // ran above; the block-side FSM/write-set/broadcast work is provably
  // dead for a consistently pruned alias group.
  if (isProvenCu(Ctx)) {
    ++PrunedStores;
    BI.Cu = C;
    return;
  }

  T.Cus[C].Ws.insert(B);
  BI.Cu = C;
  switch (BI.State) {
  case Fsm::Idle:
  case Fsm::Loaded:
    BI.State = Fsm::Stored;
    break;
  case Fsm::LoadedShared:
    BI.State = Fsm::StoredShared;
    break;
  case Fsm::Stored:
  case Fsm::StoredShared:
  case Fsm::TrueDep:
    break; // overwriting keeps the stronger state
  }
  BI.LocalWritePc = Ctx.Pc;
  BI.LocalWriteSeq = Ctx.Seq;
  Trackers.touch(B) |= uint64_t(1) << (laneOf(Ctx) % 64);

  broadcastRemote(Ctx, B, /*IsWrite=*/true);
}

void OnlineSvd::onAlu(const EventCtx &Ctx) {
  ++Events;
  PerThread &T = Threads[laneOf(Ctx)];
  popControlFrames(T, Ctx.Pc);
  const Instruction &I = *Ctx.Instr;
  if (!isa::writesRd(I.Op) || I.Rd == isa::ZeroReg)
    return;

  // destR.cuSet := union of the source registers' cuSets (lines 10-12).
  std::vector<CuId> Out;
  if (isa::readsRa(I.Op) && I.Ra != isa::ZeroReg)
    Out = T.RegSets[I.Ra];
  if (isa::readsRb(I.Op) && I.Rb != isa::ZeroReg)
    for (CuId C : T.RegSets[I.Rb])
      if (std::find(Out.begin(), Out.end(), C) == Out.end())
        Out.push_back(C);
  T.RegSets[I.Rd] = std::move(Out);
}

void OnlineSvd::onBranch(const EventCtx &Ctx, bool, uint32_t) {
  ++Events;
  PerThread &T = Threads[laneOf(Ctx)];
  popControlFrames(T, Ctx.Pc);
  const Instruction &I = *Ctx.Instr;
  if (!isa::isConditionalBranch(I.Op) || !Cfg.UseControlDeps)
    return;

  uint32_t Reconv =
      Cfg.Reconv == OnlineSvdConfig::ReconvPolicy::Skipper
          ? Cfgs[Ctx.Tid].skipperReconvergence(Ctx.Pc)
          : Cfgs[Ctx.Tid].preciseReconvergence(Ctx.Pc);
  if (Reconv == isa::ThreadCfg::NoNode)
    return;

  CtrlFrame F;
  F.CuSet = liveRoots(T, T.RegSets[I.Ra]);
  F.ReconvPc = Reconv;
  if (T.CtrlStack.size() >= Cfg.MaxControlStackDepth)
    T.CtrlStack.erase(T.CtrlStack.begin());
  T.CtrlStack.push_back(std::move(F));
}

void OnlineSvd::onLock(const EventCtx &Ctx, uint32_t) {
  // Synchronization is invisible to SVD by design; only the pc advances.
  ++Events;
  popControlFrames(Threads[laneOf(Ctx)], Ctx.Pc);
}

void OnlineSvd::onUnlock(const EventCtx &Ctx, uint32_t) {
  ++Events;
  popControlFrames(Threads[laneOf(Ctx)], Ctx.Pc);
}

void OnlineSvd::onThreadFinished(const EventCtx &Ctx) {
  PerThread &T = Threads[laneOf(Ctx)];
  T.CtrlStack.clear();
  for (auto &RS : T.RegSets)
    RS.clear();
}

size_t OnlineSvd::approxMemoryBytes() const {
  size_t Bytes = 0;
  for (const PerThread &T : Threads) {
    Bytes += T.Blocks.approxMemoryBytes();
    Bytes += T.Cus.capacity() * sizeof(CuData);
    for (const CuData &C : T.Cus)
      Bytes += (C.Rs.size() + C.Ws.size()) * 48; // rough rb-tree node cost
    for (const auto &RS : T.RegSets)
      Bytes += RS.capacity() * sizeof(CuId);
    for (const CtrlFrame &F : T.CtrlStack)
      Bytes += sizeof(CtrlFrame) + F.CuSet.capacity() * sizeof(CuId);
  }
  Bytes += Trackers.approxMemoryBytes();
  Bytes += Violations.capacity() * sizeof(Violation);
  Bytes += CuLog.capacity() * sizeof(CuLogEntry);
  return Bytes;
}
