//===- fault/Fault.h - Deterministic fault plans ----------------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded, replay-stable fault injection for robustness testing of the
/// sample-execution pipeline. A FaultPlan implements vm::FaultHooks (so
/// the Machine consults it at scheduling and locking decision points)
/// and additionally perturbs the *observation* side: it can corrupt or
/// truncate a recorded trace before the offline detector consumes it,
/// and it carries a detector state budget that forces the graceful-
/// degradation paths of svd/Detector.h.
///
/// Every decision is a pure function of (PlanSeed ^ SampleSeed, Step,
/// Tid, stream tag) through a SplitMix64-style finalizer — no mutable
/// PRNG state. That keeps the repo's two core guarantees intact under
/// injection: checkpoint/restore re-fires identical faults, and results
/// are bit-identical at any --jobs level because a plan is immutable
/// and shareable across worker threads.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_FAULT_FAULT_H
#define SVD_FAULT_FAULT_H

#include "trace/Trace.h"
#include "vm/FaultHooks.h"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace svd {
namespace fault {

/// Declarative description of one fault plan. All rates are per-myriad
/// (x/10000) so plans serialize as integers and stay exact; 0 disables
/// the corresponding fault class.
struct FaultPlanConfig {
  /// Human-readable plan name, used in reports and diagnostics.
  std::string Name = "none";
  /// Plan-level seed, mixed with the per-sample seed so the same plan
  /// perturbs different samples differently but reproducibly.
  uint64_t PlanSeed = 0;
  /// Probability (per-myriad) that a scheduled step is burned as a
  /// stall instead of executing its instruction.
  uint32_t StallRatePerMyriad = 0;
  /// Probability (per-myriad) that an uncontended Lock spuriously fails.
  uint32_t LockFailRatePerMyriad = 0;
  /// Every PreemptBurstEvery steps, a burst of PreemptBurstLen steps in
  /// which every timeslice continuation is cut short (a preemption
  /// storm). 0 disables bursts.
  uint64_t PreemptBurstEvery = 0;
  uint64_t PreemptBurstLen = 0;
  /// When nonzero, the plan throws InjectedCrash from stallThread at
  /// exactly this step, modeling a detector-pipeline crash mid-sample.
  uint64_t CrashAtStep = 0;
  /// When nonzero, corruptedCopy() truncates the trace to this many
  /// events (a monitor that died mid-recording).
  uint64_t TraceTruncateAt = 0;
  /// Probability (per-myriad) that corruptedCopy() mangles an event.
  uint32_t TraceCorruptRatePerMyriad = 0;
  /// When nonzero, detectors run under this state-entry budget and must
  /// degrade gracefully instead of growing without bound (wired through
  /// detect::StateBudget::MaxStateEntries by the caller).
  uint64_t DetectorEntryBudget = 0;

  /// --- Ingestion-stage faults (serve/Frame.h) -------------------------
  /// Per-frame decisions, keyed on a frame's position in a session's
  /// wire order. The streaming daemon consults these while mangling a
  /// session's outgoing frame stream, so the same plan perturbs every
  /// session differently (the sample seed is mixed in at FaultPlan
  /// construction) yet replay-stably.
  /// Probability (per-myriad) that a frame's bytes are flipped in
  /// flight (mangleFrameBytes).
  uint32_t FrameCorruptRatePerMyriad = 0;
  /// Probability (per-myriad) that a frame is cut short in flight —
  /// mid-header or mid-payload EOF (truncatedFrameSize).
  uint32_t FrameTruncateRatePerMyriad = 0;
  /// Probability (per-myriad) that a frame is delivered twice.
  uint32_t FrameDuplicateRatePerMyriad = 0;
  /// Probability (per-myriad) that a frame is swapped with its wire
  /// successor (adjacent reorder).
  uint32_t FrameReorderRatePerMyriad = 0;
  /// Probability (per-myriad) that processing a frame stalls the shard
  /// consumer, modeling a slow downstream analyzer.
  uint32_t FrameStallRatePerMyriad = 0;
  /// Virtual-clock ticks one consumer stall burns; 0 with a nonzero
  /// stall rate means the default of 8.
  uint32_t FrameStallTicks = 0;
  /// Probability (per-myriad) that processing a frame crashes the
  /// owning shard. Keyed on (frame position, admission attempt), so a
  /// quarantined session's re-admission re-rolls the decision and
  /// usually survives — the recoverable-crash shape.
  uint32_t ShardCrashRatePerMyriad = 0;

  /// One-line summary of the active fault classes, for reports.
  std::string describe() const;
};

/// Thrown by FaultPlan::stallThread when CrashAtStep fires. Models a
/// crash inside the monitoring pipeline; the per-sample guard in
/// harness::ParallelRunner converts it into a Failed outcome without
/// taking down sibling samples.
class InjectedCrash : public std::runtime_error {
public:
  explicit InjectedCrash(const std::string &What)
      : std::runtime_error(What) {}
};

/// An immutable, per-sample instantiation of a FaultPlanConfig. All
/// hook answers hash (plan seed ^ sample seed, stream, step, extra) —
/// see the file comment for why this purity matters.
class FaultPlan final : public vm::FaultHooks {
public:
  FaultPlan(const FaultPlanConfig &Cfg, uint64_t SampleSeed);

  const FaultPlanConfig &config() const { return Cfg; }

  // vm::FaultHooks
  bool stallThread(uint64_t Step, isa::ThreadId Tid) const override;
  bool failLockAcquire(uint64_t Step, isa::ThreadId Tid,
                       uint32_t MutexId) const override;
  bool forcePreempt(uint64_t Step, isa::ThreadId Tid) const override;

  /// True if this plan rewrites traces (corruption or truncation), i.e.
  /// the offline path must run on corruptedCopy() instead of the
  /// recorded trace.
  bool perturbsTrace() const {
    return Cfg.TraceTruncateAt != 0 || Cfg.TraceCorruptRatePerMyriad != 0;
  }

  /// True if this plan perturbs the frame stream of the streaming
  /// daemon (any ingestion-stage fault class active).
  bool perturbsFrames() const {
    return Cfg.FrameCorruptRatePerMyriad != 0 ||
           Cfg.FrameTruncateRatePerMyriad != 0 ||
           Cfg.FrameDuplicateRatePerMyriad != 0 ||
           Cfg.FrameReorderRatePerMyriad != 0 ||
           Cfg.FrameStallRatePerMyriad != 0 ||
           Cfg.ShardCrashRatePerMyriad != 0;
  }

  /// Ingestion-stage per-frame decisions. \p FramePos is the frame's
  /// position in the session's wire order. Pure functions of
  /// (plan seed, sample seed, position) like every other hook.
  bool corruptFrame(uint64_t FramePos) const;
  bool truncateFrame(uint64_t FramePos) const;
  bool duplicateFrame(uint64_t FramePos) const;
  bool reorderFrame(uint64_t FramePos) const;
  bool stallFrame(uint64_t FramePos) const;
  /// Consumer ticks one stall burns (FrameStallTicks, defaulted).
  uint32_t frameStallTicks() const {
    return Cfg.FrameStallTicks != 0 ? Cfg.FrameStallTicks : 8;
  }
  /// True when processing the frame at \p FramePos crashes the shard
  /// on admission attempt \p Attempt (1-based).
  bool crashShard(uint64_t FramePos, uint32_t Attempt) const;

  /// Deterministically flips 1-3 bytes of \p Bytes (chosen by hash of
  /// \p FramePos). No-op on an empty buffer.
  void mangleFrameBytes(std::vector<uint8_t> &Bytes,
                        uint64_t FramePos) const;

  /// The size a truncated delivery of a \p OrigSize-byte frame keeps:
  /// a hash-chosen value in [0, OrigSize), so cuts land mid-header as
  /// well as mid-payload.
  size_t truncatedFrameSize(size_t OrigSize, uint64_t FramePos) const;

  /// Returns a perturbed copy of \p T: events past TraceTruncateAt are
  /// dropped, and each surviving event is independently mangled with
  /// probability TraceCorruptRatePerMyriad (out-of-range Tid, reset
  /// Seq, out-of-range Address, or nulled Instr — chosen by hash).
  /// \p CorruptCount receives the number of events changed or dropped.
  /// Deterministic: same plan + sample seed + trace => same copy.
  trace::ProgramTrace corruptedCopy(const trace::ProgramTrace &T,
                                    uint64_t &CorruptCount) const;

private:
  /// Pure decision function: true with probability Rate/10000, keyed on
  /// (Mix, Stream, Step, Extra).
  bool decide(uint32_t Stream, uint64_t Step, uint64_t Extra,
              uint32_t RatePerMyriad) const;

  FaultPlanConfig Cfg;
  uint64_t Mix = 0; ///< PlanSeed and SampleSeed mixed at construction
};

/// A canonical matrix of \p N distinct plans for chaos runs (svd-chaos
/// --plans N). The first presets exercise, in order: a preemption
/// storm, stalls + spurious lock failures, trace corruption +
/// truncation, a detector state budget, a mid-run injected crash, and
/// a frame-stream mangle (the ingestion-stage classes, for the
/// streaming daemon). For N beyond the presets the list cycles with
/// re-derived seeds, so any N is valid and fully deterministic.
std::vector<FaultPlanConfig> defaultPlanMatrix(unsigned N);

} // namespace fault
} // namespace svd

#endif // SVD_FAULT_FAULT_H
