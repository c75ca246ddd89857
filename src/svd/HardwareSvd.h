//===- svd/HardwareSvd.h - Cache-based SVD (Section 4.4) --------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hardware SVD design the paper sketches in Section 4.4 and leaves
/// to future work: "hardware can help SVD infer true and control
/// dependences if we piggyback CU references propagation to existing
/// hardware data paths. Second, multiprocessor caches can help store
/// CUs. Finally, cache coherence protocols can help detect
/// serializability violations."
///
/// This detector realizes that sketch on the cache/CacheSim substrate:
///
///  * detector block = cache line; the per-block FSM state and CU
///    reference live *in the line* — evicting a line loses its
///    metadata, exactly as finite hardware would (a source of missed
///    detections the bench/hw_svd experiment quantifies);
///  * remote accesses are observed through coherence messages: a CPU
///    learns of a remote write from the invalidation that reaches its
///    copy and of a remote read from the M/E downgrade — silent remote
///    reads of Shared lines are invisible, but those are never
///    conflicts;
///  * conflict flags are kept per CU in a small CU table (a realistic
///    SRAM side structure) rather than per word;
///  * register CU-reference sets and the control-dependence stack are
///    identical to the software algorithm (the paper piggybacks them on
///    the register data path).
///
//===----------------------------------------------------------------------===//

#ifndef SVD_SVD_HARDWARESVD_H
#define SVD_SVD_HARDWARESVD_H

#include "analysis/AccessTable.h"
#include "analysis/AtomicProof.h"
#include "cache/CacheSim.h"
#include "isa/Cfg.h"
#include "shadow/Shadow.h"
#include "svd/Detector.h"
#include "svd/Report.h"
#include "vm/Observer.h"

#include <array>
#include <cstdint>
#include <set>
#include <vector>

namespace svd {
namespace detect {

/// Configuration of the hardware detector.
struct HardwareSvdConfig {
  cache::CacheConfig Cache;
  /// Use the Skipper probe (true) or precise postdominators (false).
  bool SkipperReconvergence = true;
  bool UseAddressDeps = true;
  bool UseControlDeps = true;
  bool KeepCuLog = true;
  size_t MaxControlStackDepth = 256;
  /// Optional static access classification. Provably-thread-local
  /// accesses still drive the cache (the coherence stream is part of
  /// the machine model) but skip the line FSM and block-set updates.
  /// Unlike the software detector this can *improve* detection: a
  /// filtered line stays Idle, so capacity evictions no longer wipe
  /// detector metadata the access would have created. Ignored unless
  /// the table's block granularity matches the line size.
  const analysis::AccessTable *Access = nullptr;
  /// Optional static atomicity proofs (analysis::proveAtomicCus).
  /// Accesses inside ProvenAtomic units take the thread-local-style
  /// fast path: the cache is still driven (the coherence stream is
  /// part of the machine model) but the line FSM, block sets, and log
  /// plumbing are skipped. Ignored unless the proofs' block
  /// granularity matches the line size. Requires the program to run
  /// one thread per CPU (the proofs are per thread), which the
  /// at-most-NumCpus-threads precondition already guarantees.
  const analysis::CuProofs *Proofs = nullptr;
  /// Upper bound on live CU-table entries per CPU (the SRAM side
  /// structure is finite in real hardware); 0 means unbounded. Over
  /// budget, the oldest live CU is deterministically ended before a
  /// new one forms and the detector marks itself degraded. Populated
  /// from DetectorConfig::Budget by the registry factory.
  uint64_t MaxCuEntries = 0;
  /// Eagerly-allocated dense per-line shadow pages instead of the
  /// sparse materialize-on-touch tables (see OnlineSvdConfig's twin
  /// knob; the ShadowDiffTest differential compares the two paths).
  bool DenseState = false;
};

/// Opaque registry config carrying a HardwareSvdConfig (registry key
/// "hwsvd").
struct HardwareSvdDetectorConfig final : DetectorConfig {
  HardwareSvdConfig Hw;

  HardwareSvdDetectorConfig() = default;
  explicit HardwareSvdDetectorConfig(HardwareSvdConfig C) : Hw(C) {}
  const char *detectorName() const override { return "hwsvd"; }
  std::unique_ptr<DetectorConfig> clone() const override {
    // Copy-construct so base fields (Budget) survive cloning.
    return std::make_unique<HardwareSvdDetectorConfig>(*this);
  }
};

/// Registers the cache-based detector as "hwsvd" (display "HW-SVD").
void registerHardwareSvdDetector(DetectorRegistry &R);

/// Cache-based online SVD; attach with Machine::addObserver. Threads
/// are approximated by processors (Section 4.3), so the program must
/// have at most Cache.NumCpus threads.
class HardwareSvd : public vm::ExecutionObserver {
public:
  HardwareSvd(const isa::Program &P,
              HardwareSvdConfig Cfg = HardwareSvdConfig());

  const std::vector<Violation> &violations() const { return Violations; }
  const std::vector<CuLogEntry> &cuLog() const { return CuLog; }
  uint64_t numCusFormed() const { return CuCreations - CuMerges; }
  uint64_t numCusEnded() const { return CuEndings; }
  /// Lines whose detector metadata was lost to capacity evictions —
  /// the hardware design's intrinsic detection gap.
  uint64_t metadataEvictions() const { return MetadataEvictions; }
  /// Dynamic accesses that took the provably-thread-local fast path.
  uint64_t filteredAccesses() const { return FilteredLoads + FilteredStores; }
  /// Dynamic accesses pruned because they sit in a ProvenAtomic unit.
  uint64_t prunedAccesses() const { return PrunedLoads + PrunedStores; }
  /// True once the CU-table budget forced an eviction (sticky).
  bool degraded() const { return Ledger.degraded(); }
  /// CUs ended early to stay under budget (included in numCusEnded()).
  uint64_t budgetEvictions() const { return Ledger.evictions(); }
  /// Starts a fresh observation epoch on the per-line shadow tables.
  void beginEpoch();
  /// Shadow pages materialized across all CPUs.
  uint64_t shadowPages() const;
  /// Bytes held by materialized shadow pages.
  size_t shadowBytes() const;
  const cache::CacheStats &cacheStats() const { return Cache.stats(); }
  /// Extra state a hardware implementation would add, in bits: per
  /// cache line (3-bit FSM + CU reference) plus the CU table.
  size_t metadataBits() const;

  void onLoad(const vm::EventCtx &Ctx, isa::Addr A, isa::Word V) override;
  void onStore(const vm::EventCtx &Ctx, isa::Addr A, isa::Word V) override;
  void onAlu(const vm::EventCtx &Ctx) override;
  void onBranch(const vm::EventCtx &Ctx, bool Taken,
                uint32_t Target) override;
  void onLock(const vm::EventCtx &Ctx, uint32_t MutexId) override;
  void onUnlock(const vm::EventCtx &Ctx, uint32_t MutexId) override;
  void onThreadFinished(const vm::EventCtx &Ctx) override;

private:
  using CuId = uint32_t;
  using LineId = cache::LineId;
  static constexpr CuId NoCu = UINT32_MAX;

  enum class Fsm : uint8_t {
    Idle,
    Loaded,
    Stored,
    LoadedShared,
    StoredShared,
    TrueDep,
  };

  /// CU-table entry: block sets plus the per-CU conflict summary.
  struct CuData {
    CuId Parent = 0;
    bool Dead = false;
    std::set<LineId> Rs;
    std::set<LineId> Ws;
    bool Conflict = false;
    isa::ThreadId ConflictTid = 0;
    uint32_t ConflictPc = 0;
    uint64_t ConflictSeq = 0;
  };

  /// Per-line metadata as held in the cache line.
  struct LineInfo {
    Fsm State = Fsm::Idle;
    CuId Cu = NoCu;
    uint32_t LocalWritePc = UINT32_MAX;
    uint64_t LocalWriteSeq = 0;
    uint32_t LocalReadPc = UINT32_MAX;
    uint64_t LocalReadSeq = 0;
    isa::ThreadId RemoteWriteTid = 0;
    uint32_t RemoteWritePc = UINT32_MAX;
    uint64_t RemoteWriteSeq = 0;
  };

  struct CtrlFrame {
    std::vector<CuId> CuSet;
    uint32_t ReconvPc;
  };

  struct PerCpu {
    PerCpu(uint64_t NumLines, shadow::Mode M) : Lines(NumLines, M) {}

    std::vector<CuData> Cus;
    /// Per-line metadata, paged: a CPU that never caches a region of
    /// the heap never materializes its shadow pages.
    shadow::Table<LineInfo> Lines;
    std::array<std::vector<CuId>, isa::NumRegs> RegSets;
    std::vector<CtrlFrame> CtrlStack;
    /// Live (undead root) CU count and monotone eviction scan position
    /// for the MaxCuEntries budget (ids only ever stop being live
    /// roots, so everything behind the cursor stays ineligible).
    shadow::BudgetLane Budget;
  };

  CuId find(PerCpu &C, CuId Id) const;
  CuId newCu(PerCpu &C);
  /// Ends the oldest live CU of \p C to stay under MaxCuEntries,
  /// marking the detector degraded.
  void evictOldestCu(PerCpu &C);
  CuId mergeCus(PerCpu &C, CuId A, CuId B);
  std::vector<CuId> liveRoots(PerCpu &C, const std::vector<CuId> &Set);
  void popControlFrames(PerCpu &C, uint32_t Pc);
  std::vector<CuId> controlCuSet(PerCpu &C);
  void checkViolations(PerCpu &C, const vm::EventCtx &Ctx,
                       const std::vector<CuId> &CuSet);
  void deactivateCu(PerCpu &C, CuId Id);
  void emitLog(isa::ThreadId Tid, const LineInfo &LI, LineId L,
               uint64_t ReadSeq, uint32_t ReadPc);
  /// Processes a coherence message reaching \p Cpu about \p Line.
  void handleCoherence(uint32_t Cpu, LineId Line, bool RemoteIsWrite,
                       const vm::EventCtx &Ctx);
  /// The line was evicted from \p Cpu: its metadata is gone.
  void handleEviction(uint32_t Cpu, LineId Line);
  /// Drives the cache and dispatches coherence/eviction effects.
  void driveCache(const vm::EventCtx &Ctx, isa::Addr A, bool IsWrite);

  /// True when the static table proves \p Ctx's access thread-local and
  /// filtering is active.
  bool isFilteredLocal(const vm::EventCtx &Ctx) const {
    return FilterActive &&
           Cfg.Access->classify(Ctx.Tid, Ctx.Pc) ==
               analysis::AccessClass::ThreadLocal;
  }

  /// True when \p Ctx's access sits in a ProvenAtomic unit and proof
  /// pruning is active.
  bool isProvenCu(const vm::EventCtx &Ctx) const {
    return PruneActive && Cfg.Proofs->provenAt(Ctx.Tid, Ctx.Pc);
  }

  const isa::Program &Prog;
  HardwareSvdConfig Cfg;
  bool FilterActive = false;
  bool PruneActive = false;
  cache::CacheSim Cache;
  std::vector<PerCpu> Cpus;
  std::vector<isa::ThreadCfg> Cfgs;
  /// The shared MaxCuEntries budget ledger (sticky degradation state).
  shadow::BudgetLedger Ledger;

  std::vector<Violation> Violations;
  std::vector<CuLogEntry> CuLog;
  uint64_t CuCreations = 0;
  uint64_t CuMerges = 0;
  uint64_t CuEndings = 0;
  uint64_t MetadataEvictions = 0;
  uint64_t FilteredLoads = 0;
  uint64_t FilteredStores = 0;
  uint64_t PrunedLoads = 0;
  uint64_t PrunedStores = 0;
};

} // namespace detect
} // namespace svd

#endif // SVD_SVD_HARDWARESVD_H
