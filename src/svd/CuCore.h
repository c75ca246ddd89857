//===- svd/CuCore.h - The CU engine both SVD detectors share ----*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The half of Figure 7 that does not depend on how remote accesses are
/// observed. Section 4.4's hardware sketch reuses the software algorithm
/// unchanged — the same CU inference, register CU-reference sets and
/// control-dependence stack — and changes only where remote accesses
/// come from: a software broadcast or cache-coherence messages. CuCore
/// is that shared algorithm, per state lane (a thread, or a CPU when
/// threads are approximated by processors):
///
///  * the CU union-find forest, with the MaxCuEntries budget eviction;
///  * register CU-set propagation (loads tag registers, ALU ops union
///    tags) and the control-dependence stack of (cuSet, reconvergence
///    point) frames — the Skipper heuristic or precise postdominators;
///  * the store-time gathering of the data/address/control CU sets and
///    `merge_and_update` over the data set;
///  * the per-(lane, block) FSM of Figure 8 for local loads and stores
///    and for a remote access, ending CUs on shared dependences;
///  * the provably-thread-local and ProvenAtomic fast paths;
///  * the a-posteriori CU log of Section 2.3.
///
/// OnlineSvd and HardwareSvd derive from it (CRTP: the per-event path
/// reaches the policy without virtual or std::function calls) and keep
/// only their remote-event policy, supplied as these members:
///
///  * `laneOf(Ctx)` — the state lane of an event;
///  * `beforeAccess(Ctx, A, IsWrite)` — runs before the local FSM step
///    of every load/store (the hardware detector drives its cache);
///  * `afterAccess(Ctx, B, IsWrite)` — runs after a full-path local
///    access (the software detector broadcasts it to other lanes);
///  * `noteConflict(Lane, Block, Ctx)` — records a conflicting remote
///    access (per block in software, per CU in hardware);
///  * `checkViolations(Lane, Ctx, CuSet)` — the strict-2PL check at a
///    store over the CUs it depends on;
///  * `untrack(LaneIdx, B)` — a lane's block went back to Idle when its
///    CU ended.
///
/// A policy delivers remote accesses back through remoteAccess().
///
/// Reconstructed FSM transitions (Figure 8 names the states only):
/// \verbatim
///   Idle --load--> Loaded          Idle --store--> Stored
///   Loaded --store--> Stored       Loaded --remote--> Loaded_Shared
///   Stored --local load--> True_Dep  Stored --remote--> Stored_Shared
///   Loaded_Shared --store--> Stored_Shared
///   Stored_Shared --local load--> [end CU] -> Idle (then load => Loaded)
///   True_Dep --remote--> [end CU] -> Idle
/// \endverbatim
///
//===----------------------------------------------------------------------===//

#ifndef SVD_SVD_CUCORE_H
#define SVD_SVD_CUCORE_H

#include "analysis/AccessTable.h"
#include "analysis/AtomicProof.h"
#include "isa/Cfg.h"
#include "isa/Program.h"
#include "obs/Obs.h"
#include "shadow/Shadow.h"
#include "support/Error.h"
#include "svd/Detector.h"
#include "svd/Report.h"
#include "vm/Machine.h"
#include "vm/Observer.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <set>
#include <vector>

namespace svd {
namespace detect {

using CuId = uint32_t;
using CuBlockId = uint32_t;
inline constexpr CuId NoCu = UINT32_MAX;

/// Figure 8's FSM_STATE.
enum class CuFsm : uint8_t {
  Idle,
  Loaded,
  Stored,
  LoadedShared,
  StoredShared,
  TrueDep,
};

/// BLK_T as the core keeps it per lane: FSM state and CU, plus the
/// witnesses of the a-posteriori log triple.
struct CuBlock {
  CuFsm State = CuFsm::Idle;
  CuId Cu = NoCu;
  // Last thread-local write / read (lw and s of the log triple).
  uint32_t LocalWritePc = UINT32_MAX;
  uint64_t LocalWriteSeq = 0;
  uint32_t LocalReadPc = UINT32_MAX;
  uint64_t LocalReadSeq = 0;
  // Last remote write (rw of the log triple).
  isa::ThreadId RemoteWriteTid = 0;
  uint32_t RemoteWritePc = UINT32_MAX;
  uint64_t RemoteWriteSeq = 0;

  /// The block's CU ended: back to Idle. A detector block type that
  /// adds state resets it in a hiding endCu() of its own.
  void endCu() {
    State = CuFsm::Idle;
    Cu = NoCu;
  }
};

/// CU_T: read/write block sets plus union-find linkage. A detector CU
/// type that adds per-CU state hides absorb() (fold a merged-away CU's
/// state into the surviving root) and retire() (the CU ended).
struct CuNode {
  CuId Parent = 0;
  bool Dead = false;
  std::set<CuBlockId> Rs;
  std::set<CuBlockId> Ws;

  void absorb(const CuNode &) {}
  void retire() {}
};

/// The algorithm's knobs. Defaults reproduce the paper's configuration.
struct CuCoreConfig {
  /// Control-flow reconvergence policy for the control-dependence stack.
  enum class ReconvPolicy : uint8_t {
    Skipper, ///< the paper's probe heuristic (if / if-else only)
    Precise, ///< immediate postdominators from the static CFG
  };
  ReconvPolicy Reconv = ReconvPolicy::Skipper;

  /// Include address dependences (addrCuSet) in the store-time check.
  bool UseAddressDeps = true;

  /// Include control dependences (ctrlCuSet) in the store-time check.
  bool UseControlDeps = true;

  /// Detector block granularity: block id = word address >> BlockShift.
  /// 0 reproduces the paper's word-size blocks (Section 6.2); larger
  /// values introduce false sharing (ablation).
  uint32_t BlockShift = 0;

  /// Record the a-posteriori CU log (Section 2.3).
  bool KeepCuLog = true;

  /// Safety bound on the control-dependence stack; the oldest frame is
  /// dropped beyond it (irreducible or unlucky control flow).
  size_t MaxControlStackDepth = 256;

  /// Optional static access classification (analysis::buildAccessTable).
  /// Accesses the table proves thread-local take a fast path that skips
  /// the per-block FSM, block-set insertion, and remote-event delivery
  /// while preserving CU construction and the store-time strict-2PL
  /// check — violation reports and the CU log stay bit-identical (see
  /// DESIGN.md). Each detector decides when the table applies (its
  /// block granularity and lane kind must match the table's).
  const analysis::AccessTable *Access = nullptr;

  /// Optional static atomicity proofs (analysis::proveAtomicCus).
  /// Accesses inside a ProvenAtomic unit take the same fast path as
  /// provably-thread-local ones: the proof guarantees no schedule can
  /// involve their blocks in a violation or a CU-log triple, and the
  /// alias-group fixpoint makes the pruning symmetric (every access
  /// that can reach a pruned block is itself pruned), so the remaining
  /// event stream — and with it every violation report — stays
  /// bit-identical (the PruneDiff test asserts this across all suites).
  /// Gated by each detector like Access.
  const analysis::CuProofs *Proofs = nullptr;

  /// Upper bound on *live* (undead root) CUs per state lane; 0 means
  /// unbounded. Over budget, the oldest live CU is deterministically
  /// ended (deactivated exactly as a shared dependence would end it)
  /// before a new one is created, and the detector marks itself
  /// degraded — bounded-memory operation at the price of possibly
  /// missing violations whose CU was evicted. Populated from
  /// DetectorConfig::Budget by the registry factory.
  uint64_t MaxCuEntries = 0;

  /// Keep per-block state in eagerly-allocated dense shadow pages (the
  /// historical pre-shadow-layer behavior) instead of the sparse
  /// materialize-on-touch tables. Functionally identical by contract;
  /// exists so the dense-vs-shadow differential (ShadowDiffTest) can
  /// compare two genuinely different allocation paths, and as an
  /// ablation knob for small dense heaps.
  bool DenseState = false;
};

/// Folds a registry config's shared StateBudget into a detector-native
/// config (any type with MaxCuEntries, Access and Proofs); fields the
/// detector config set explicitly win.
template <typename ConfigT>
void applyStateBudget(ConfigT &C, const StateBudget &B) {
  if (B.MaxStateEntries != 0 && C.MaxCuEntries == 0)
    C.MaxCuEntries = B.MaxStateEntries;
  if (B.Access && !C.Access)
    C.Access = B.Access;
  if (B.Proofs && !C.Proofs)
    C.Proofs = B.Proofs;
}

/// Registry adapter around one CuCore detector: the Detector plumbing
/// both SVD variants share (reports, CU log, shadow pages, budget
/// health, proof-pruning stats). \p Reason is the health text a budget
/// eviction reports.
template <typename ImplT> class CuCoreDetector : public Detector {
public:
  template <typename ConfigT>
  CuCoreDetector(const isa::Program &P, const ConfigT &Cfg,
                 const char *Reason)
      : Impl(P, Cfg), Proofs(Cfg.Proofs), Reason(Reason) {}

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
  uint64_t numCusFormed() const override { return Impl.numCusFormed(); }
  const DetectorHealth &health() const override {
    H.Degraded = Impl.degraded();
    H.Evictions = Impl.budgetEvictions();
    if (H.Degraded && H.Reason.empty())
      H.Reason = Reason;
    return H;
  }

protected:
  /// Adds the proof-pruning counters. They exist only when proofs were
  /// supplied, so configurations that never heard of pruning keep their
  /// exported stats (and the goldens pinning them) byte-stable.
  void exportProofStats(obs::Registry &R) const;

  ImplT Impl;

private:
  const analysis::CuProofs *Proofs;
  const char *Reason;
  mutable DetectorHealth H;
};

/// The shared CU engine; see the file comment for the policy contract.
template <typename Derived, typename BlockT, typename CuT = CuNode>
class CuCore : public vm::ExecutionObserver {
public:
  /// Dynamic serializability-violation reports, in detection order.
  const std::vector<Violation> &violations() const { return Violations; }

  /// The a-posteriori CU log (empty when disabled).
  const std::vector<CuLogEntry> &cuLog() const { return CuLog; }

  /// Number of CUs formed over the run (ended plus still-open ones);
  /// Table 2's "Computational Units" column.
  uint64_t numCusFormed() const { return CuCreations - CuMerges; }

  /// Number of CUs ended by shared dependences (or budget evictions).
  uint64_t numCusEnded() const { return CuEndings; }

  /// Dynamic events observed (the per-million-instruction denominator).
  uint64_t eventsObserved() const { return Events; }

  /// True once the CU budget (MaxCuEntries) forced an eviction —
  /// sticky for the rest of the run.
  bool degraded() const { return Ledger.degraded(); }

  /// CUs ended early to stay under budget (included in numCusEnded()).
  uint64_t budgetEvictions() const { return Ledger.evictions(); }

  /// Dynamic accesses that took the provably-thread-local fast path.
  uint64_t filteredAccesses() const { return FilteredLoads + FilteredStores; }
  uint64_t filteredLoads() const { return FilteredLoads; }
  uint64_t filteredStores() const { return FilteredStores; }

  /// Dynamic accesses pruned because they sit in a ProvenAtomic unit.
  uint64_t prunedAccesses() const { return PrunedLoads + PrunedStores; }
  uint64_t prunedLoads() const { return PrunedLoads; }
  uint64_t prunedStores() const { return PrunedStores; }

  /// Starts a fresh observation epoch on the per-block shadow tables
  /// (O(1) in sparse mode; see shadow/Shadow.h).
  void beginEpoch() {
    for (LaneState &T : Lanes)
      T.Blocks.beginEpoch();
  }

  /// Shadow pages materialized across all state lanes.
  uint64_t shadowPages() const {
    uint64_t Pages = 0;
    for (const LaneState &T : Lanes)
      Pages += T.Blocks.pagesAllocated();
    return Pages;
  }

  /// Bytes held by materialized shadow pages.
  size_t shadowBytes() const {
    size_t Bytes = 0;
    for (const LaneState &T : Lanes)
      Bytes += T.Blocks.approxMemoryBytes();
    return Bytes;
  }

  // --- ExecutionObserver ----------------------------------------------
  void onLoad(const vm::EventCtx &Ctx, isa::Addr A, isa::Word V) override;
  void onStore(const vm::EventCtx &Ctx, isa::Addr A, isa::Word V) override;
  void onAlu(const vm::EventCtx &Ctx) override;
  void onBranch(const vm::EventCtx &Ctx, bool Taken,
                uint32_t Target) override;
  void onLock(const vm::EventCtx &Ctx, uint32_t MutexId) override;
  void onUnlock(const vm::EventCtx &Ctx, uint32_t MutexId) override;
  void onThreadFinished(const vm::EventCtx &Ctx) override;

protected:
  using BlockId = CuBlockId;
  using Fsm = CuFsm;

  /// One control-dependence stack frame.
  struct CtrlFrame {
    std::vector<CuId> CuSet;
    uint32_t ReconvPc;
  };

  /// All detector state of one lane (the paper stresses SVD's
  /// structures are private per thread).
  struct LaneState {
    LaneState(uint64_t NumBlocks, shadow::Mode M) : Blocks(NumBlocks, M) {}

    std::vector<CuT> Cus;
    /// Per-block FSM/CU/log state, paged so a lane that never touches
    /// a region of the heap never pays for it.
    shadow::Table<BlockT> Blocks;
    std::array<std::vector<CuId>, isa::NumRegs> RegSets;
    std::vector<CtrlFrame> CtrlStack;
    /// Live (undead root) CU count and eviction scan position for the
    /// MaxCuEntries budget, maintained by newCu / mergeCus /
    /// deactivateCu. The cursor is sound as a monotone scan: CU ids
    /// only ever stop being live roots (union-find parents move up,
    /// Dead is never cleared), so everything behind it stays
    /// ineligible.
    shadow::BudgetLane Budget;
  };

  /// \p Cfg's Access/Proofs must already be gated by the detector
  /// (null when they do not apply); \p NumLanes state lanes are built.
  CuCore(const isa::Program &P, const CuCoreConfig &Cfg, uint32_t NumLanes);

  shadow::Mode shadowMode() const {
    return Cfg.DenseState ? shadow::Mode::Dense : shadow::Mode::Sparse;
  }
  /// The word address a block id stands for (its first word).
  isa::Addr addressOf(BlockId B) const {
    return static_cast<isa::Addr>(B) << Cfg.BlockShift;
  }

  CuId find(LaneState &T, CuId Id) const {
    if (Id == NoCu)
      return NoCu;
    while (T.Cus[Id].Parent != Id) {
      T.Cus[Id].Parent = T.Cus[T.Cus[Id].Parent].Parent;
      Id = T.Cus[Id].Parent;
    }
    return Id;
  }
  /// Ends \p C: resets its blocks to Idle and marks it dead
  /// (deactivate_log_CU without the log side; logging happens at the
  /// shared-dependence sites where the triple is known).
  void deactivateCu(LaneState &T, CuId C);
  /// Delivers a remote access to block \p B by \p Ctx's thread to lane
  /// \p Lane's FSM (Figure 7's REMOTE_ACCESS handler).
  void remoteAccess(uint32_t Lane, BlockId B, bool IsWrite,
                    const vm::EventCtx &Ctx);

  const uint32_t NumBlocks;
  std::vector<LaneState> Lanes;
  std::vector<Violation> Violations;

private:
  Derived &self() { return static_cast<Derived &>(*this); }

  CuId newCu(LaneState &T);
  /// Ends the oldest live CU of \p T to make room under MaxCuEntries,
  /// marking the detector degraded.
  void evictOldestCu(LaneState &T);
  CuId mergeCus(LaneState &T, CuId A, CuId B);
  /// Appends the live roots of \p Set that \p Out does not hold yet.
  void liveRoots(LaneState &T, const std::vector<CuId> &Set,
                 std::vector<CuId> &Out) {
    for (CuId Id : Set) {
      CuId R = find(T, Id);
      if (R == NoCu || T.Cus[R].Dead)
        continue;
      if (std::find(Out.begin(), Out.end(), R) == Out.end())
        Out.push_back(R);
    }
  }

  /// The lane of \p Ctx, with the control frames that reconverge at its
  /// pc popped.
  LaneState &enter(const vm::EventCtx &Ctx) {
    ++Events;
    LaneState &T = Lanes[self().laneOf(Ctx)];
    while (!T.CtrlStack.empty() && T.CtrlStack.back().ReconvPc == Ctx.Pc)
      T.CtrlStack.pop_back();
    return T;
  }

  /// True (and counted) when \p Ctx's access is provably thread-local
  /// or sits in a ProvenAtomic unit: its block never conflicts, so only
  /// the true-dependence plumbing runs.
  bool fastPath(const vm::EventCtx &Ctx, uint64_t &Filtered,
                uint64_t &Pruned) {
    if (Cfg.Access && Cfg.Access->classify(Ctx.Tid, Ctx.Pc) ==
                          analysis::AccessClass::ThreadLocal) {
      ++Filtered;
      return true;
    }
    if (Cfg.Proofs && Cfg.Proofs->provenAt(Ctx.Tid, Ctx.Pc)) {
      ++Pruned;
      return true;
    }
    return false;
  }

  /// Joins \p BI's CU (creating one for fresh blocks) and tags the
  /// destination register with it (Figure 7 lines 7-8).
  CuId joinAndTag(LaneState &T, const vm::EventCtx &Ctx, BlockT &BI) {
    CuId Id = find(T, BI.Cu);
    if (Id == NoCu || T.Cus[Id].Dead)
      Id = newCu(T);
    BI.Cu = Id;
    const isa::Instruction &I = *Ctx.Instr;
    if (I.Rd != isa::ZeroReg) {
      T.RegSets[I.Rd].clear();
      T.RegSets[I.Rd].push_back(Id);
    }
    return Id;
  }
  void emitLog(isa::ThreadId Tid, const BlockT &BI, BlockId B,
               uint64_t ReadSeq, uint32_t ReadPc);

  CuCoreConfig Cfg;
  std::vector<isa::ThreadCfg> Cfgs;
  /// The shared MaxCuEntries budget ledger (sticky degradation state).
  shadow::BudgetLedger Ledger;

  std::vector<CuLogEntry> CuLog;
  uint64_t Events = 0;
  uint64_t FilteredLoads = 0;
  uint64_t FilteredStores = 0;
  uint64_t PrunedLoads = 0;
  uint64_t PrunedStores = 0;
  uint64_t CuCreations = 0;
  uint64_t CuMerges = 0;
  uint64_t CuEndings = 0;
};

//===----------------------------------------------------------------------===//
// Implementation. Each detector instantiates its CuCore explicitly in its
// own .cpp (and declares it extern in its header), so the policy calls
// below inline into one copy of the engine per detector.
//===----------------------------------------------------------------------===//

template <typename ImplT>
void CuCoreDetector<ImplT>::exportProofStats(obs::Registry &R) const {
  if (Proofs) {
    R.counter("analysis.proven_cus").add(Proofs->proven().size());
    R.counter("svd.cu_pruned_events").add(Impl.prunedAccesses());
  }
}

template <typename D, typename B, typename C>
CuCore<D, B, C>::CuCore(const isa::Program &P, const CuCoreConfig &Cfg,
                        uint32_t NumLanes)
    : NumBlocks(static_cast<uint32_t>((P.MemoryWords >> Cfg.BlockShift) + 1)),
      Cfg(Cfg), Ledger(Cfg.MaxCuEntries) {
  Lanes.reserve(NumLanes);
  for (uint32_t L = 0; L < NumLanes; ++L)
    Lanes.emplace_back(NumBlocks, shadowMode());
  Cfgs.reserve(P.numThreads());
  for (const isa::ThreadCode &TC : P.Threads)
    Cfgs.emplace_back(TC.Code);
}

template <typename D, typename B, typename C>
CuId CuCore<D, B, C>::newCu(LaneState &T) {
  if (Ledger.overBudget(T.Budget.Live))
    evictOldestCu(T);
  CuId Id = static_cast<CuId>(T.Cus.size());
  T.Cus.push_back(C());
  T.Cus.back().Parent = Id;
  ++CuCreations;
  ++T.Budget.Live;
  return Id;
}

template <typename D, typename B, typename C>
void CuCore<D, B, C>::evictOldestCu(LaneState &T) {
  // Scan forward from the cursor for the oldest live root; ids behind
  // the cursor can never become eligible again (see LaneState).
  for (CuId Id = T.Budget.Cursor; Id < T.Cus.size(); ++Id) {
    if (T.Cus[Id].Parent != Id || T.Cus[Id].Dead)
      continue;
    T.Budget.Cursor = Id;
    deactivateCu(T, Id);
    Ledger.recordEviction();
    return;
  }
  T.Budget.Cursor = static_cast<CuId>(T.Cus.size());
}

template <typename D, typename B, typename C>
CuId CuCore<D, B, C>::mergeCus(LaneState &T, CuId X, CuId Y) {
  X = find(T, X);
  Y = find(T, Y);
  if (X == Y)
    return X;
  assert(!T.Cus[X].Dead && !T.Cus[Y].Dead && "merging a dead CU");
  // Union by block-set size to bound copying.
  if (T.Cus[X].Rs.size() + T.Cus[X].Ws.size() <
      T.Cus[Y].Rs.size() + T.Cus[Y].Ws.size())
    std::swap(X, Y);
  T.Cus[Y].Parent = X;
  T.Cus[X].Rs.insert(T.Cus[Y].Rs.begin(), T.Cus[Y].Rs.end());
  T.Cus[X].Ws.insert(T.Cus[Y].Ws.begin(), T.Cus[Y].Ws.end());
  T.Cus[X].absorb(T.Cus[Y]);
  T.Cus[Y].Rs.clear();
  T.Cus[Y].Ws.clear();
  ++CuMerges;
  if (T.Budget.Live > 0)
    --T.Budget.Live;
  return X;
}

template <typename D, typename B, typename C>
void CuCore<D, B, C>::deactivateCu(LaneState &T, CuId Id) {
  Id = find(T, Id);
  if (Id == NoCu || T.Cus[Id].Dead)
    return;
  C &CU = T.Cus[Id];
  CU.Dead = true;
  ++CuEndings;
  if (T.Budget.Live > 0)
    --T.Budget.Live;
  uint32_t Lane = static_cast<uint32_t>(&T - Lanes.data());
  auto ResetBlocks = [&](const std::set<BlockId> &Blocks) {
    for (BlockId Blk : Blocks) {
      B &BI = T.Blocks.touch(Blk);
      // A block may have been handed to a newer CU already; leave those.
      if (find(T, BI.Cu) != Id)
        continue;
      BI.endCu();
      self().untrack(Lane, Blk);
    }
  };
  ResetBlocks(CU.Rs);
  ResetBlocks(CU.Ws);
  CU.Rs.clear();
  CU.Ws.clear();
  CU.retire();
}

template <typename D, typename B, typename C>
void CuCore<D, B, C>::emitLog(isa::ThreadId Tid, const B &BI, BlockId Blk,
                              uint64_t ReadSeq, uint32_t ReadPc) {
  if (!Cfg.KeepCuLog || BI.RemoteWritePc == UINT32_MAX)
    return; // disabled, or no remote write: nothing was overwritten
  CuLogEntry E;
  E.Seq = ReadSeq;
  E.Tid = Tid;
  E.Pc = ReadPc;
  E.RemoteSeq = BI.RemoteWriteSeq;
  E.RemoteTid = BI.RemoteWriteTid;
  E.RemotePc = BI.RemoteWritePc;
  E.LocalSeq = BI.LocalWriteSeq;
  E.LocalPc = BI.LocalWritePc;
  E.Address = addressOf(Blk);
  CuLog.push_back(E);
}

template <typename D, typename B, typename C>
void CuCore<D, B, C>::remoteAccess(uint32_t Lane, BlockId Blk, bool IsWrite,
                                   const vm::EventCtx &Ctx) {
  LaneState &T = Lanes[Lane];
  // An untouched (or epoch-stale) block reads as Idle without
  // materializing anything; only engaged blocks pay for the touch.
  if (T.Blocks.peek(Blk).State == Fsm::Idle)
    return;
  B &BI = T.Blocks.touch(Blk);

  if (IsWrite) {
    BI.RemoteWriteTid = Ctx.Tid;
    BI.RemoteWritePc = Ctx.Pc;
    BI.RemoteWriteSeq = Ctx.Seq;
  }

  // Conflict iff the remote access is a write, or this lane wrote the
  // block (remote read vs. local write).
  bool LocalWrote = BI.State == Fsm::Stored || BI.State == Fsm::StoredShared ||
                    BI.State == Fsm::TrueDep;
  if (IsWrite || LocalWrote)
    self().noteConflict(T, BI, Ctx);

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
    if (IsWrite)
      emitLog(Lane, BI, Blk, BI.LocalReadSeq, BI.LocalReadPc);
    deactivateCu(T, BI.Cu);
    BI.endCu();
    break;
  case Fsm::LoadedShared:
  case Fsm::StoredShared:
    break;
  case Fsm::Idle:
    SVD_UNREACHABLE("filtered above");
  }
}

template <typename D, typename B, typename C>
void CuCore<D, B, C>::onLoad(const vm::EventCtx &Ctx, isa::Addr A,
                             isa::Word) {
  LaneState &T = enter(Ctx);
  self().beforeAccess(Ctx, A, /*IsWrite=*/false);
  BlockId Blk = static_cast<BlockId>(A >> Cfg.BlockShift);
  B &BI = T.Blocks.touch(Blk);

  // Fast path: no remote access can ever conflict on this block, so its
  // FSM never leaves Idle and no other lane needs to hear of it. Only
  // the true-dependence plumbing that links CUs through local data
  // runs: join the block's CU and tag the destination register, exactly
  // as the full path would.
  if (fastPath(Ctx, FilteredLoads, PrunedLoads)) {
    joinAndTag(T, Ctx, BI);
    return;
  }

  // Shared dependence: a load on a Stored_Shared block ends the CU
  // (Figure 7 lines 5-6) and feeds the a-posteriori log if a remote
  // write intervened after the local one.
  if (BI.State == Fsm::StoredShared) {
    if (BI.RemoteWritePc != UINT32_MAX &&
        BI.RemoteWriteSeq > BI.LocalWriteSeq)
      emitLog(Ctx.Tid, BI, Blk, Ctx.Seq, Ctx.Pc);
    deactivateCu(T, BI.Cu);
    // The deactivation resets every block the CU still owns; make this
    // block's reset unconditional in case it was handed to a newer CU.
    BI.endCu();
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

  CuId Id = joinAndTag(T, Ctx, BI);
  T.Cus[Id].Rs.insert(Blk);
  BI.LocalReadPc = Ctx.Pc;
  BI.LocalReadSeq = Ctx.Seq;
  self().afterAccess(Ctx, Blk, /*IsWrite=*/false);
}

template <typename D, typename B, typename C>
void CuCore<D, B, C>::onStore(const vm::EventCtx &Ctx, isa::Addr A,
                              isa::Word) {
  LaneState &T = enter(Ctx);
  self().beforeAccess(Ctx, A, /*IsWrite=*/true);
  BlockId Blk = static_cast<BlockId>(A >> Cfg.BlockShift);
  const isa::Instruction &I = *Ctx.Instr;

  // Gather the data, address, and control CU sets (Figure 7 lines
  // 15-17); the control set aggregates every stack frame's cuSet
  // (ctrl_dep_from_stack()).
  std::vector<CuId> DataSet;
  liveRoots(T, T.RegSets[I.Rb], DataSet);
  std::vector<CuId> CheckSet = DataSet;
  if (Cfg.UseAddressDeps)
    liveRoots(T, T.RegSets[I.Ra], CheckSet);
  if (Cfg.UseControlDeps)
    for (const CtrlFrame &F : T.CtrlStack)
      if (!F.CuSet.empty()) // most frames branch on untagged registers
        liveRoots(T, F.CuSet, CheckSet);

  // Strict-2PL check (line 18).
  self().checkViolations(T, Ctx, CheckSet);

  // merge_and_update over the data CU set only (lines 20-21; Section 4.3:
  // CUs are connected via true dependences only).
  CuId Id;
  if (DataSet.empty()) {
    Id = newCu(T);
  } else {
    Id = DataSet[0];
    for (size_t K = 1; K < DataSet.size(); ++K)
      Id = mergeCus(T, Id, DataSet[K]);
  }

  B &BI = T.Blocks.touch(Blk);
  BI.Cu = Id;

  // Fast path. The violation check and the CU merge above already ran —
  // they concern the CUs this store depends on, not the stored block —
  // so only the block-side bookkeeping is skipped: the block never
  // conflicts (its Ws membership is dead weight), its FSM never
  // matters, and no other lane needs to hear of it.
  if (fastPath(Ctx, FilteredStores, PrunedStores))
    return;

  T.Cus[Id].Ws.insert(Blk);
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
  self().afterAccess(Ctx, Blk, /*IsWrite=*/true);
}

template <typename D, typename B, typename C>
void CuCore<D, B, C>::onAlu(const vm::EventCtx &Ctx) {
  LaneState &T = enter(Ctx);
  const isa::Instruction &I = *Ctx.Instr;
  if (!isa::writesRd(I.Op) || I.Rd == isa::ZeroReg)
    return;

  // destR.cuSet := union of the source registers' cuSets (lines 10-12).
  std::vector<CuId> Out;
  if (isa::readsRa(I.Op) && I.Ra != isa::ZeroReg)
    Out = T.RegSets[I.Ra];
  if (isa::readsRb(I.Op) && I.Rb != isa::ZeroReg)
    for (CuId Id : T.RegSets[I.Rb])
      if (std::find(Out.begin(), Out.end(), Id) == Out.end())
        Out.push_back(Id);
  T.RegSets[I.Rd] = std::move(Out);
}

template <typename D, typename B, typename C>
void CuCore<D, B, C>::onBranch(const vm::EventCtx &Ctx, bool, uint32_t) {
  LaneState &T = enter(Ctx);
  const isa::Instruction &I = *Ctx.Instr;
  if (!isa::isConditionalBranch(I.Op) || !Cfg.UseControlDeps)
    return;

  uint32_t Reconv = Cfg.Reconv == CuCoreConfig::ReconvPolicy::Skipper
                        ? Cfgs[Ctx.Tid].skipperReconvergence(Ctx.Pc)
                        : Cfgs[Ctx.Tid].preciseReconvergence(Ctx.Pc);
  if (Reconv == isa::ThreadCfg::NoNode)
    return;

  CtrlFrame F;
  liveRoots(T, T.RegSets[I.Ra], F.CuSet);
  F.ReconvPc = Reconv;
  if (T.CtrlStack.size() >= Cfg.MaxControlStackDepth)
    T.CtrlStack.erase(T.CtrlStack.begin());
  T.CtrlStack.push_back(std::move(F));
}

// Synchronization is invisible to SVD by design; only the pc advances.
template <typename D, typename B, typename C>
void CuCore<D, B, C>::onLock(const vm::EventCtx &Ctx, uint32_t) {
  enter(Ctx);
}

template <typename D, typename B, typename C>
void CuCore<D, B, C>::onUnlock(const vm::EventCtx &Ctx, uint32_t) {
  enter(Ctx);
}

template <typename D, typename B, typename C>
void CuCore<D, B, C>::onThreadFinished(const vm::EventCtx &Ctx) {
  LaneState &T = Lanes[self().laneOf(Ctx)];
  T.CtrlStack.clear();
  for (auto &RS : T.RegSets)
    RS.clear();
}

} // namespace detect
} // namespace svd

#endif // SVD_SVD_CUCORE_H
