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
///  * register CU-reference sets, the control-dependence stack, the
///    CU forest and the line FSM are the software algorithm's, run by
///    the same CU core (svd/CuCore.h) with the paper's defaults (the
///    paper piggybacks the register sets on the register data path);
///    this class keeps only the cache, coherence and eviction handling
///    and the per-CU conflict table.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_SVD_HARDWARESVD_H
#define SVD_SVD_HARDWARESVD_H

#include "cache/CacheSim.h"
#include "svd/CuCore.h"

#include <cstdint>
#include <vector>

namespace svd {
namespace detect {

/// Configuration of the hardware detector. The CU algorithm itself runs
/// with the paper's defaults (Skipper reconvergence, address and
/// control dependences, the CU log).
struct HardwareSvdConfig {
  cache::CacheConfig Cache;
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
  /// sparse materialize-on-touch tables (see CuCoreConfig's twin
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

/// CU-table entry: the core's block sets plus the per-CU conflict
/// summary.
struct HardwareSvdCu : CuNode {
  bool Conflict = false;
  isa::ThreadId ConflictTid = 0;
  uint32_t ConflictPc = 0;
  uint64_t ConflictSeq = 0;

  void absorb(const HardwareSvdCu &O) {
    if (O.Conflict && !Conflict) {
      Conflict = true;
      ConflictTid = O.ConflictTid;
      ConflictPc = O.ConflictPc;
      ConflictSeq = O.ConflictSeq;
    }
  }
  void retire() { Conflict = false; }
};

/// Cache-based online SVD; attach with Machine::addObserver. Threads
/// are approximated by processors (Section 4.3), so the program must
/// have at most Cache.NumCpus threads. Per-line metadata (FSM state and
/// CU reference) is the core's CuBlock, held "in the line".
class HardwareSvd : public CuCore<HardwareSvd, CuBlock, HardwareSvdCu> {
public:
  HardwareSvd(const isa::Program &P,
              HardwareSvdConfig Cfg = HardwareSvdConfig());

  /// Lines whose detector metadata was lost to capacity evictions —
  /// the hardware design's intrinsic detection gap.
  uint64_t metadataEvictions() const { return MetadataEvictions; }
  const cache::CacheStats &cacheStats() const { return Cache.stats(); }
  /// Extra state a hardware implementation would add, in bits: per
  /// cache line (3-bit FSM + CU reference) plus the CU table.
  size_t metadataBits() const;

private:
  using Core = CuCore<HardwareSvd, CuBlock, HardwareSvdCu>;
  friend Core;

  // --- remote-event policy (see CuCore.h) ------------------------------
  /// Thread i runs on CPU i.
  uint32_t laneOf(const vm::EventCtx &Ctx) const { return Ctx.Tid; }
  /// Drives the cache and dispatches coherence/eviction effects.
  void beforeAccess(const vm::EventCtx &Ctx, isa::Addr A, bool IsWrite);
  void afterAccess(const vm::EventCtx &, BlockId, bool) {}
  void noteConflict(LaneState &C, CuBlock &LI, const vm::EventCtx &Ctx);
  void checkViolations(LaneState &C, const vm::EventCtx &Ctx,
                       const std::vector<CuId> &CuSet);
  void untrack(uint32_t, BlockId) {}

  /// The line was evicted from \p Cpu: its metadata is gone.
  void handleEviction(uint32_t Cpu, cache::LineId Line);

  cache::CacheSim Cache;
  uint64_t MetadataEvictions = 0;
};

extern template class CuCore<HardwareSvd, CuBlock, HardwareSvdCu>;

} // namespace detect
} // namespace svd

#endif // SVD_SVD_HARDWARESVD_H
