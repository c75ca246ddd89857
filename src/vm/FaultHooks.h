//===- vm/FaultHooks.h - Deterministic fault-injection hooks ----*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Machine's consultation surface for deterministic fault injection
/// (src/fault). A hook set attached via MachineConfig::Faults is asked,
/// at well-defined points of the machine's step loop, whether to perturb
/// execution:
///
///  * \c stallThread   — burn the scheduled step without executing the
///                       instruction (a "delay burst");
///  * \c failLockAcquire — make an uncontended Lock spuriously fail, as
///                       a trylock under memory pressure would;
///  * \c forcePreempt  — cut the current timeslice short (a preemption
///                       storm layered on the seeded scheduler).
///
/// The contract that keeps the determinism guarantees intact: every
/// answer must be a pure function of the visible arguments (step count,
/// thread, mutex) and of state fixed at construction (seeds). Hooks
/// hold no mutable state, so Machine::checkpoint()/restore() replays
/// re-ask the same questions and get the same answers, and two machines
/// sharing one hook set stay independent. Implementations may throw to
/// model a detector-pipeline crash; the Machine is exception-neutral
/// and the harness's per-sample guard (harness::ParallelRunner)
/// contains it.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_VM_FAULTHOOKS_H
#define SVD_VM_FAULTHOOKS_H

#include "isa/Program.h"

#include <cstdint>

namespace svd {
namespace vm {

/// Fault-injection decision points consulted by the Machine. See file
/// comment for the purity contract. All methods are const: a hook set
/// is immutable after construction and shareable across machines.
class FaultHooks {
public:
  virtual ~FaultHooks();

  /// Asked once per scheduled step, before the instruction executes.
  /// Returning true burns the step as a stall: the schedule records the
  /// thread, the step counter advances, but no instruction runs.
  virtual bool stallThread(uint64_t Step, isa::ThreadId Tid) const = 0;

  /// Asked when \p Tid executes Lock on the *free* mutex \p MutexId.
  /// Returning true makes the acquire spuriously fail: the step is
  /// consumed, the pc does not advance, and the thread stays Ready (no
  /// owner exists to wake it), so it retries when next scheduled.
  virtual bool failLockAcquire(uint64_t Step, isa::ThreadId Tid,
                               uint32_t MutexId) const = 0;

  /// Asked once per scheduling decision for the thread about to run:
  /// when the scheduler would continue \p Tid's current timeslice, when
  /// a fresh slice was just drawn for \p Tid, and when serial mode would
  /// stay on \p Tid. Returning true ends the slice after the current
  /// step — a continuation falls through to a fresh seeded draw (whose
  /// PRNG draws happen regardless, keeping the stream aligned), a fresh
  /// slice is truncated to a single step, and serial mode advances
  /// round-robin to the next runnable thread. Each decision charges at
  /// most one fault.preemptions count.
  virtual bool forcePreempt(uint64_t Step, isa::ThreadId Tid) const = 0;
};

} // namespace vm
} // namespace svd

#endif // SVD_VM_FAULTHOOKS_H
