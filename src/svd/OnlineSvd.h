//===- svd/OnlineSvd.h - Online serializability violation detector -*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online, one-pass SVD algorithm of Section 4.2 (Figures 7 and 8).
/// OnlineSvd observes a Machine's event stream and, per thread:
///
///  * infers true dependences by propagating CU references through
///    registers (loads tag registers, ALU ops union tags, stores merge
///    the tagged CUs — `merge_and_update`);
///  * infers partial control dependences with a stack of (cuSet,
///    reconvergence point) frames — the Skipper heuristic, or precisely
///    via immediate postdominators (ablation);
///  * infers shared blocks with the per-(thread, block) finite state
///    machine of Figure 8, ending a CU when a shared dependence is
///    detected (load on Stored_Shared, or remote access on True_Dep);
///  * checks strict-2PL at every store over the input blocks of the CUs
///    the store is data-, address-, or control-dependent on, reporting a
///    serializability violation when a conflicting remote access hit one
///    of those blocks before the CU ended;
///  * emits the a-posteriori CU log of Section 2.3 when CUs end on
///    shared dependences.
///
/// The CU engine behind all of that is shared with HardwareSvd
/// (svd/CuCore.h); this file adds the software remote-event policy:
/// every local access is broadcast to the other threads tracking its
/// block, and conflicts are flagged per block.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_SVD_ONLINESVD_H
#define SVD_SVD_ONLINESVD_H

#include "svd/CuCore.h"

#include <cstdint>
#include <vector>

namespace svd {
namespace detect {

/// Tunables of the online detector: the CU core's knobs plus the
/// software policy's own. Defaults reproduce the paper's configuration;
/// the ablation bench flips them individually.
///
/// The static Access table and Proofs apply only when their block
/// granularity matches BlockShift and NumCpus is 0: with the processor
/// approximation a migrating thread can raise remote events against
/// its own blocks, so even provably-local accesses must run the full
/// path (and the proofs are per thread, not per processor).
struct OnlineSvdConfig : CuCoreConfig {
  /// Check only a CU's input blocks (CU_T.rs) for conflicts — the
  /// Section 4.3 heuristic. When false, write sets are checked too.
  bool CheckInputBlocksOnly = true;

  /// 0 keys detector state by thread (ideal). A nonzero value
  /// reproduces the paper's Section 4.3 deployment — "SVD approximates
  /// threads with processors" — by keying all per-thread state on
  /// EventCtx::Cpu instead; must match MachineConfig::NumCpus. With
  /// migration or CPU sharing, distinct threads' streams then blend in
  /// one state lane, the approximation error bench/migration_study
  /// quantifies.
  uint32_t NumCpus = 0;
};

/// Opaque registry config carrying an OnlineSvdConfig (registry key
/// "svd").
struct OnlineSvdDetectorConfig final : DetectorConfig {
  OnlineSvdConfig Svd;

  OnlineSvdDetectorConfig() = default;
  explicit OnlineSvdDetectorConfig(OnlineSvdConfig C) : Svd(C) {}
  const char *detectorName() const override { return "svd"; }
  std::unique_ptr<DetectorConfig> clone() const override {
    // Copy-construct so base fields (Budget) survive cloning.
    return std::make_unique<OnlineSvdDetectorConfig>(*this);
  }
};

/// Registers the online detector as "svd" (display name "SVD").
void registerOnlineSvdDetector(DetectorRegistry &R);

/// Per-block state of one lane: the core's FSM/CU/log state plus the
/// software policy's conflict flag — the last conflicting remote access
/// (for violation reports).
struct OnlineSvdBlock : CuBlock {
  bool Conflict = false;
  isa::ThreadId ConflictTid = 0;
  uint32_t ConflictPc = 0;
  uint64_t ConflictSeq = 0;

  void endCu() {
    CuBlock::endCu();
    Conflict = false;
  }
};

/// The online detector; attach with Machine::addObserver. The CU engine
/// is CuCore's; this class adds the software remote-event policy: the
/// state lane is the thread (or CPU under NumCpus), each local access
/// is broadcast to the lanes tracking its block, and conflicts are
/// flagged per block.
class OnlineSvd : public CuCore<OnlineSvd, OnlineSvdBlock> {
public:
  OnlineSvd(const isa::Program &P, OnlineSvdConfig Cfg = OnlineSvdConfig());

  /// Starts a fresh observation epoch on the per-block shadow tables
  /// (O(1) in sparse mode; see shadow/Shadow.h).
  void beginEpoch();

  /// Shadow pages materialized across all state lanes.
  uint64_t shadowPages() const;

  /// Bytes held by materialized shadow pages.
  size_t shadowBytes() const;

  /// Rough accounting of detector memory (Section 7.3's space overhead).
  size_t approxMemoryBytes() const;

private:
  using Core = CuCore<OnlineSvd, OnlineSvdBlock>;
  friend Core;

  // --- remote-event policy (see CuCore.h) ------------------------------
  /// The state lane an event belongs to: its CPU when approximating
  /// threads with processors, else its thread.
  uint32_t laneOf(const vm::EventCtx &Ctx) const {
    return Cfg.NumCpus != 0 ? Ctx.Cpu : Ctx.Tid;
  }
  void beforeAccess(const vm::EventCtx &, isa::Addr, bool) {}
  /// Marks the block tracked by the accessing lane and broadcasts the
  /// access to every other lane tracking it.
  void afterAccess(const vm::EventCtx &Ctx, BlockId B, bool IsWrite);
  void noteConflict(LaneState &, OnlineSvdBlock &BI,
                    const vm::EventCtx &Ctx) {
    BI.Conflict = true;
    BI.ConflictTid = Ctx.Tid;
    BI.ConflictPc = Ctx.Pc;
    BI.ConflictSeq = Ctx.Seq;
  }
  void checkViolations(LaneState &T, const vm::EventCtx &Ctx,
                       const std::vector<CuId> &CuSet);
  void untrack(uint32_t Lane, BlockId B) {
    Trackers.touch(B) &= ~(uint64_t(1) << (Lane % 64));
  }

  OnlineSvdConfig Cfg;
  /// Per block: bitmask of lanes whose FSM state for it is not Idle
  /// (remote-access fan-out; lanes beyond 64 fall back to scanning).
  shadow::Table<uint64_t> Trackers;
};

extern template class CuCore<OnlineSvd, OnlineSvdBlock>;

} // namespace detect
} // namespace svd

#endif // SVD_SVD_ONLINESVD_H
