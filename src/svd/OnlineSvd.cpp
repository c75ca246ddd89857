//===- svd/OnlineSvd.cpp --------------------------------------------------===//

#include "svd/OnlineSvd.h"

using namespace svd;
using namespace svd::detect;
using vm::EventCtx;

namespace {

/// Registry adapter around one OnlineSvd instance.
class OnlineSvdDetector final : public CuCoreDetector<OnlineSvd> {
public:
  OnlineSvdDetector(const isa::Program &P, const OnlineSvdConfig &Cfg)
      : CuCoreDetector(P, Cfg, "cu budget exceeded; oldest live CUs evicted") {}

  const char *name() const override { return "svd"; }
  size_t approxMemoryBytes() const override {
    return Impl.approxMemoryBytes();
  }
  void exportStats(obs::Registry &R) const override {
    Detector::exportStats(R);
    R.counter("detect.svd.events").add(Impl.eventsObserved());
    R.counter("detect.svd.filtered_loads").add(Impl.filteredLoads());
    R.counter("detect.svd.filtered_stores").add(Impl.filteredStores());
    R.counter("detect.svd.cus_ended").add(Impl.numCusEnded());
    exportProofStats(R);
  }
};

/// The core's knobs with the static artifacts gated: the table's
/// locality proofs and the atomicity proofs hold at their own block
/// granularity and per thread, so refuse mismatched ones and the CPU
/// approximation (a migrating thread raises remote events against its
/// own blocks).
CuCoreConfig coreConfig(const OnlineSvdConfig &Cfg) {
  CuCoreConfig C = Cfg;
  bool PerThread = Cfg.NumCpus == 0;
  if (!Cfg.Access || Cfg.Access->blockShift() != Cfg.BlockShift || !PerThread)
    C.Access = nullptr;
  if (!Cfg.Proofs || Cfg.Proofs->blockShift() != Cfg.BlockShift || !PerThread)
    C.Proofs = nullptr;
  return C;
}

} // namespace

void detect::registerOnlineSvdDetector(DetectorRegistry &R) {
  R.add({"svd", "SVD", "online serializability violation detector (Fig. 7)",
         [](const isa::Program &P, const DetectorConfig *Cfg) {
           const auto *C = configAs<OnlineSvdDetectorConfig>(Cfg, "svd");
           OnlineSvdConfig SC = C ? C->Svd : OnlineSvdConfig();
           if (C)
             applyStateBudget(SC, C->Budget);
           return std::make_unique<OnlineSvdDetector>(P, SC);
         }});
}

OnlineSvd::OnlineSvd(const isa::Program &P, OnlineSvdConfig Cfg)
    : Core(P, coreConfig(Cfg),
           Cfg.NumCpus != 0 ? Cfg.NumCpus : P.numThreads()),
      Cfg(Cfg), Trackers(NumBlocks, shadowMode()) {}

void OnlineSvd::beginEpoch() {
  Core::beginEpoch();
  Trackers.beginEpoch();
}

uint64_t OnlineSvd::shadowPages() const {
  return Core::shadowPages() + Trackers.pagesAllocated();
}

size_t OnlineSvd::shadowBytes() const {
  return Core::shadowBytes() + Trackers.approxMemoryBytes();
}

void OnlineSvd::checkViolations(LaneState &T, const EventCtx &Ctx,
                                const std::vector<CuId> &CuSet) {
  for (CuId C : CuSet) {
    const CuNode &CU = T.Cus[C];
    auto CheckBlocks = [&](const std::set<BlockId> &Blocks) {
      for (BlockId B : Blocks) {
        // Peek first: most blocks have no pending conflict, and a CU
        // block set may reference pages older than the current epoch.
        if (!T.Blocks.peek(B).Conflict)
          continue;
        OnlineSvdBlock &BI = T.Blocks.touch(B);
        Violation V;
        V.Seq = Ctx.Seq;
        V.Tid = Ctx.Tid;
        V.Pc = Ctx.Pc;
        V.OtherTid = BI.ConflictTid;
        V.OtherPc = BI.ConflictPc;
        V.OtherSeq = BI.ConflictSeq;
        V.Address = addressOf(B);
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

void OnlineSvd::afterAccess(const EventCtx &Ctx, BlockId B, bool IsWrite) {
  uint32_t Self = laneOf(Ctx);
  uint64_t &Mask = Trackers.touch(B);
  Mask |= uint64_t(1) << (Self % 64);
  if (Lanes.size() <= 64) {
    uint64_t Others = Mask & ~(uint64_t(1) << Self);
    while (Others) {
      unsigned Lane = static_cast<unsigned>(__builtin_ctzll(Others));
      Others &= Others - 1;
      remoteAccess(Lane, B, IsWrite, Ctx);
    }
    return;
  }
  // Fallback for very wide machines: scan.
  for (uint32_t Lane = 0; Lane < Lanes.size(); ++Lane)
    if (Lane != Self && Lanes[Lane].Blocks.peek(B).State != Fsm::Idle)
      remoteAccess(Lane, B, IsWrite, Ctx);
}

size_t OnlineSvd::approxMemoryBytes() const {
  size_t Bytes = 0;
  for (const LaneState &T : Lanes) {
    Bytes += T.Blocks.approxMemoryBytes();
    Bytes += T.Cus.capacity() * sizeof(CuNode);
    for (const CuNode &C : T.Cus)
      Bytes += (C.Rs.size() + C.Ws.size()) * 48; // rough rb-tree node cost
    for (const auto &RS : T.RegSets)
      Bytes += RS.capacity() * sizeof(CuId);
    for (const CtrlFrame &F : T.CtrlStack)
      Bytes += sizeof(CtrlFrame) + F.CuSet.capacity() * sizeof(CuId);
  }
  Bytes += Trackers.approxMemoryBytes();
  Bytes += Violations.capacity() * sizeof(Violation);
  Bytes += cuLog().capacity() * sizeof(CuLogEntry);
  return Bytes;
}

template class svd::detect::CuCore<OnlineSvd, OnlineSvdBlock>;
