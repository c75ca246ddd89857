//===- svd/HardwareSvd.cpp ------------------------------------------------===//

#include "svd/HardwareSvd.h"

#include <bit>

using namespace svd;
using namespace svd::detect;
using cache::LineId;
using vm::EventCtx;

namespace {

/// Registry adapter around one HardwareSvd instance.
class HardwareSvdDetector final : public CuCoreDetector<HardwareSvd> {
public:
  HardwareSvdDetector(const isa::Program &P, const HardwareSvdConfig &Cfg)
      : CuCoreDetector(P, Cfg,
                       "cu table budget exceeded; oldest live CUs evicted") {}

  const char *name() const override { return "hwsvd"; }
  size_t approxMemoryBytes() const override {
    return Impl.metadataBits() / 8;
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
    exportProofStats(R);
  }
};

/// The paper's default CU algorithm at line granularity. The static
/// artifacts hold per thread; with the one-thread-per-CPU precondition
/// the CPU index *is* the thread id, so only the granularity gates.
CuCoreConfig coreConfig(const HardwareSvdConfig &Cfg) {
  CuCoreConfig C;
  C.BlockShift = static_cast<uint32_t>(std::countr_zero(Cfg.Cache.LineWords));
  if (Cfg.Access &&
      (uint32_t(1) << Cfg.Access->blockShift()) == Cfg.Cache.LineWords)
    C.Access = Cfg.Access;
  if (Cfg.Proofs &&
      (uint32_t(1) << Cfg.Proofs->blockShift()) == Cfg.Cache.LineWords)
    C.Proofs = Cfg.Proofs;
  C.MaxCuEntries = Cfg.MaxCuEntries;
  C.DenseState = Cfg.DenseState;
  return C;
}

} // namespace

void detect::registerHardwareSvdDetector(DetectorRegistry &R) {
  R.add({"hwsvd", "HW-SVD",
         "cache-based SVD (Section 4.4; threads approximated by CPUs)",
         [](const isa::Program &P, const DetectorConfig *Cfg) {
           const auto *C = configAs<HardwareSvdDetectorConfig>(Cfg, "hwsvd");
           HardwareSvdConfig HC = C ? C->Hw : HardwareSvdConfig();
           if (C)
             applyStateBudget(HC, C->Budget);
           return std::make_unique<HardwareSvdDetector>(P, HC);
         }});
}

HardwareSvd::HardwareSvd(const isa::Program &P, HardwareSvdConfig Cfg)
    : Core(P, coreConfig(Cfg), Cfg.Cache.NumCpus), Cache(Cfg.Cache) {
  if (P.numThreads() > Cfg.Cache.NumCpus)
    support::fatalError("hardware SVD: more threads than CPUs");
}

void HardwareSvd::noteConflict(LaneState &C, CuBlock &LI,
                               const EventCtx &Ctx) {
  CuId Id = find(C, LI.Cu);
  if (Id != NoCu && !C.Cus[Id].Dead) {
    C.Cus[Id].Conflict = true;
    C.Cus[Id].ConflictTid = Ctx.Tid;
    C.Cus[Id].ConflictPc = Ctx.Pc;
    C.Cus[Id].ConflictSeq = Ctx.Seq;
  }
}

void HardwareSvd::checkViolations(LaneState &C, const EventCtx &Ctx,
                                  const std::vector<CuId> &CuSet) {
  for (CuId Id : CuSet) {
    HardwareSvdCu &CU = C.Cus[Id];
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
    V.Address = CU.Rs.empty() ? 0 : addressOf(*CU.Rs.begin());
    Violations.push_back(V);
    CU.Conflict = false;
  }
}

void HardwareSvd::handleEviction(uint32_t Cpu, LineId Line) {
  // Untouched (or epoch-stale) lines read as Idle without
  // materializing a page.
  if (Lanes[Cpu].Blocks.peek(Line).State == Fsm::Idle)
    return;
  // The metadata travels with the line: gone on eviction. The CU stays
  // alive (its table entry survives) but loses sight of this line.
  ++MetadataEvictions;
  Lanes[Cpu].Blocks.touch(Line) = CuBlock();
}

void HardwareSvd::beforeAccess(const EventCtx &Ctx, isa::Addr A,
                               bool IsWrite) {
  // A CPU learns of a remote write from the invalidation that reaches
  // its copy and of a remote read from the M/E downgrade.
  cache::AccessResult R = Cache.access(Ctx.Tid, A, IsWrite);
  if (R.EvictedValid)
    handleEviction(Ctx.Tid, R.EvictedLine);
  LineId Line = Cache.lineOf(A);
  for (uint32_t Cpu : R.Invalidated)
    remoteAccess(Cpu, Line, IsWrite, Ctx);
  for (uint32_t Cpu : R.Downgraded)
    remoteAccess(Cpu, Line, IsWrite, Ctx);
}

size_t HardwareSvd::metadataBits() const {
  // Per cache line: 3-bit FSM + 16-bit CU reference.
  size_t Bits = Cache.totalLines() * (3 + 16);
  // CU table: assume 256 entries per CPU of (2 x 16-bit set summaries +
  // conflict bit + 32-bit pc) — a coarse hardware budget.
  Bits += static_cast<size_t>(Cache.config().NumCpus) * 256 *
          (16 + 16 + 1 + 32);
  return Bits;
}

template class svd::detect::CuCore<HardwareSvd, CuBlock, HardwareSvdCu>;
