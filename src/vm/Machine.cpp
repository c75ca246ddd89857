//===- vm/Machine.cpp -----------------------------------------------------===//

#include "vm/Machine.h"

#include "obs/Obs.h"
#include "vm/Translate.h"
#include "support/Error.h"
#include "support/StringUtils.h"

using namespace svd;
using namespace svd::vm;
using isa::Addr;
using isa::ThreadId;
using isa::Word;
using support::formatString;

FaultHooks::~FaultHooks() = default;

ExecutionObserver::~ExecutionObserver() = default;
void ExecutionObserver::onLoad(const EventCtx &, Addr, Word) {}
void ExecutionObserver::onStore(const EventCtx &, Addr, Word) {}
void ExecutionObserver::onAlu(const EventCtx &) {}
void ExecutionObserver::onBranch(const EventCtx &, bool, uint32_t) {}
void ExecutionObserver::onLock(const EventCtx &, uint32_t) {}
void ExecutionObserver::onUnlock(const EventCtx &, uint32_t) {}
void ExecutionObserver::onProgramError(const EventCtx &, const char *) {}
void ExecutionObserver::onPrint(const EventCtx &, Word) {}
void ExecutionObserver::onThreadFinished(const EventCtx &) {}
void ExecutionObserver::onRunEnd() {}

Machine::Machine(const isa::Program &P, MachineConfig Cfg)
    : Prog(P), Cfg(Cfg), Sched(Cfg.SchedSeed) {
  std::string Problem = P.validate();
  if (!Problem.empty())
    support::fatalError("invalid program: " + Problem);
  if (Cfg.MinTimeslice == 0 || Cfg.MaxTimeslice < Cfg.MinTimeslice)
    support::fatalError("invalid timeslice configuration");

  Memory.assign(P.MemoryWords, 0);
  Threads.resize(P.numThreads());
  for (ThreadId Tid = 0; Tid < P.numThreads(); ++Tid) {
    Threads[Tid].Regs.assign(isa::NumRegs, 0);
    // Derived per-thread input streams: program inputs are independent of
    // scheduling, so BER re-execution sees the same inputs.
    Threads[Tid].Rnd = support::Xoshiro256(
        Cfg.RndSeed + 0x9E3779B97F4A7C15ULL * (Tid + 1));
  }
  MutexOwner.assign(P.Mutexes.size(), -1);
  MutexWaiters.resize(P.Mutexes.size());

  Migration = support::Xoshiro256(Cfg.SchedSeed ^ 0x5DEECE66DULL);
  CpuBinding.resize(P.numThreads());
  for (ThreadId Tid = 0; Tid < P.numThreads(); ++Tid)
    CpuBinding[Tid] = Cfg.NumCpus ? Tid % Cfg.NumCpus : Tid;

  if (Cfg.Cache) {
    if (&Cfg.Cache->program() != &P)
      support::fatalError("translation cache built over a different "
                          "program");
    TC = Cfg.Cache;
  } else {
    OwnedCache = std::make_unique<TransCache>(P);
    TC = OwnedCache.get();
  }
}

Machine::~Machine() = default;

void Machine::addObserver(ExecutionObserver *O) { Observers.push_back(O); }

void Machine::removeObserver(ExecutionObserver *O) {
  // Removal must stay valid while an event is being fanned out: keep the
  // dispatch cursor pointing at the element it has already delivered, so
  // removing an observer at or before it cannot skip the next one, and
  // removing one after it simply shortens the loop.
  for (size_t I = 0; I < Observers.size();) {
    if (Observers[I] != O) {
      ++I;
      continue;
    }
    Observers.erase(Observers.begin() + static_cast<ptrdiff_t>(I));
    if (static_cast<ptrdiff_t>(I) <= NotifyCursor)
      --NotifyCursor;
  }
}

bool Machine::finished() const {
  for (const Thread &T : Threads)
    if (T.State != ThreadState::Halted)
      return false;
  return true;
}

bool Machine::scheduleNext(StopReason &WhyStopped) {
  if (Steps >= Cfg.MaxSteps) {
    WhyStopped = StopReason::StepBudget;
    return false;
  }

  if (Replaying) {
    if (ReplayPos >= Replay.size()) {
      // Prefer the natural verdict when the recording covered the whole
      // run; Paused means the recording ended mid-execution.
      WhyStopped = finished() ? StopReason::AllHalted
                              : StopReason::Paused;
      return false;
    }
    ThreadId Tid = Replay[ReplayPos++];
    if (Tid >= Threads.size() || Threads[Tid].State != ThreadState::Ready)
      support::fatalError(formatString(
          "replay schedule names thread %u which is not runnable", Tid));
    CurThread = Tid;
    return true;
  }

  // Every scheduling decision consults forcePreempt — continuations,
  // fresh slice draws, and serial-mode stays alike — so a preemption
  // storm perturbs the whole schedule, not just mid-slice steps, and
  // fault.preemptions counts every slice the plan cut short. At most one
  // preemption is charged per decision: a continuation cut short below
  // falls through to a fresh draw that is not consulted again.
  bool AlreadyPreempted = false;

  // Continue the current timeslice if possible — unless an injected
  // preemption cuts it short (a fresh seeded draw happens below, so the
  // perturbation stays a pure function of the step count).
  if (SliceLeft > 0 && Threads[CurThread].State == ThreadState::Ready) {
    if (Cfg.Faults && Cfg.Faults->forcePreempt(Steps, CurThread)) {
      ++Counters.FaultPreemptions;
      SliceLeft = 0;
      AlreadyPreempted = true;
    } else {
      --SliceLeft;
      return true;
    }
  }

  std::vector<ThreadId> Ready;
  for (ThreadId Tid = 0; Tid < Threads.size(); ++Tid)
    if (Threads[Tid].State == ThreadState::Ready)
      Ready.push_back(Tid);
  if (Ready.empty()) {
    WhyStopped = finished() ? StopReason::AllHalted : StopReason::Deadlock;
    return false;
  }

  if (Cfg.SerialMode) {
    // Stay on the current thread while it can run — unless an injected
    // preemption forces the round-robin advance early — otherwise move
    // to the next runnable thread in round-robin order.
    if (Threads[CurThread].State == ThreadState::Ready) {
      if (!AlreadyPreempted && Cfg.Faults &&
          Cfg.Faults->forcePreempt(Steps, CurThread)) {
        ++Counters.FaultPreemptions;
      } else {
        SliceLeft = 0;
        return true;
      }
    }
    for (ThreadId Off = 1; Off <= Threads.size(); ++Off) {
      // The wrap back to CurThread itself keeps a preempted thread
      // running when it is the only runnable one.
      ThreadId Tid = (CurThread + Off) % Threads.size();
      if (Threads[Tid].State == ThreadState::Ready) {
        CurThread = Tid;
        SliceLeft = 0;
        return true;
      }
    }
    SVD_UNREACHABLE("Ready was nonempty");
  }

  CurThread = Ready[Sched.nextBelow(Ready.size())];
  uint32_t Range = Cfg.MaxTimeslice - Cfg.MinTimeslice + 1;
  SliceLeft =
      Cfg.MinTimeslice + static_cast<uint32_t>(Sched.nextBelow(Range)) - 1;
  // A plan firing on the first step of a fresh slice truncates it to
  // this single step (the draw above is still taken, so the scheduler's
  // PRNG stream stays aligned with the fault-free run).
  if (!AlreadyPreempted && Cfg.Faults &&
      Cfg.Faults->forcePreempt(Steps, CurThread)) {
    ++Counters.FaultPreemptions;
    SliceLeft = 0;
  }
  return true;
}

bool Machine::stepOnce(StopReason &WhyStopped) {
  ReadyStale = true; // may change thread states behind the burst loop
  WhyStopped = StopReason::AllHalted;
  if (!scheduleNext(WhyStopped))
    return false;
  // OS-style thread migration: occasionally rebind a thread to another
  // CPU (Section 4.3's "threads may migrate from one processor to
  // another", which per-processor detectors cannot see).
  if (Cfg.NumCpus != 0 && Cfg.MigrationInterval != 0 && Steps != 0 &&
      Steps % Cfg.MigrationInterval == 0) {
    ThreadId T =
        static_cast<ThreadId>(Migration.nextBelow(Threads.size()));
    CpuBinding[T] = static_cast<uint32_t>(Migration.nextBelow(Cfg.NumCpus));
  }
  // Injected stall: the scheduled thread burns its step without
  // executing (its schedule entry keeps replays aligned).
  if (Cfg.Faults && Cfg.Faults->stallThread(Steps, CurThread)) {
    Schedule.push_back(CurThread);
    ++Counters.FaultStalls;
    ++Steps;
    return true;
  }
  execute();
  return true;
}

bool Machine::stepThread(ThreadId Tid, StopReason &WhyStopped) {
  ReadyStale = true; // may change thread states behind the burst loop
  WhyStopped = StopReason::AllHalted;
  if (Steps >= Cfg.MaxSteps) {
    WhyStopped = StopReason::StepBudget;
    return false;
  }
  if (Tid >= Threads.size() || Threads[Tid].State != ThreadState::Ready) {
    if (!finished())
      WhyStopped = StopReason::Paused;
    return false;
  }
  CurThread = Tid;
  SliceLeft = 0; // force a fresh scheduling decision on the next stepOnce
  execute();
  return true;
}

StopReason Machine::run() {
  StopReason R = runBursts();
  if (R != StopReason::Paused)
    notifyRunEnd();
  return R;
}

void Machine::notifyRunEnd() {
  if (RunEndNotified)
    return;
  RunEndNotified = true;
  notifyObservers([](ExecutionObserver &O) { O.onRunEnd(); });
}

void Machine::exportStats(obs::Registry &R) const {
  R.counter("vm.instructions").add(Steps);
  R.counter("vm.loads").add(Counters.Loads);
  R.counter("vm.stores").add(Counters.Stores);
  R.counter("vm.alu").add(Counters.Alu);
  R.counter("vm.branches").add(Counters.Branches);
  R.counter("vm.lock_acquires").add(Counters.LockAcquires);
  R.counter("vm.lock_spins").add(Counters.LockSpins);
  R.counter("vm.unlocks").add(Counters.Unlocks);
  R.counter("vm.program_errors").add(Counters.ProgramErrors);
  // fault.* appears only for machines with hooks attached, so fault-free
  // suites keep their pinned counter sets byte-identical.
  if (Cfg.Faults) {
    R.counter("fault.stalls").add(Counters.FaultStalls);
    R.counter("fault.lock_failures").add(Counters.FaultLockFailures);
    R.counter("fault.preemptions").add(Counters.FaultPreemptions);
  }
}

void Machine::recordError(const EventCtx &Ctx, const std::string &Msg) {
  ++Counters.ProgramErrors;
  Errors.push_back({Ctx.Seq, Ctx.Tid, Ctx.Pc, Msg});
  notifyObservers([&](ExecutionObserver &O) {
    O.onProgramError(Ctx, Errors.back().Message.c_str());
  });
}

void Machine::haltThread(const EventCtx &Ctx) {
  Threads[Ctx.Tid].State = ThreadState::Halted;
  ReadyStale = true;
  notifyObservers([&](ExecutionObserver &O) { O.onThreadFinished(Ctx); });
}

void Machine::setReplaySchedule(std::vector<ThreadId> S) {
  if (Steps != 0)
    support::fatalError("replay schedule must be set before execution");
  Replay = std::move(S);
  ReplayPos = 0;
  Replaying = true;
}

Checkpoint Machine::checkpoint() const {
  Checkpoint C;
  C.Memory = Memory;
  C.Threads.resize(Threads.size());
  for (size_t I = 0; I < Threads.size(); ++I) {
    C.Threads[I].Pc = Threads[I].Pc;
    C.Threads[I].State = Threads[I].State;
    C.Threads[I].Regs = Threads[I].Regs;
    C.Threads[I].CallStack = Threads[I].CallStack;
    C.Threads[I].Rnd = Threads[I].Rnd;
  }
  C.MutexOwner = MutexOwner;
  C.MutexWaiters = MutexWaiters;
  C.Sched = Sched;
  C.Migration = Migration;
  C.CpuBinding = CpuBinding;
  C.Steps = Steps;
  C.Counters = Counters;
  C.CurThread = CurThread;
  C.SliceLeft = SliceLeft;
  C.NumErrors = Errors.size();
  C.NumPrints = Prints.size();
  C.ScheduleLen = Schedule.size();
  C.Replay = Replay;
  C.ReplayPos = ReplayPos;
  C.Replaying = Replaying;
  return C;
}

void Machine::restore(const Checkpoint &C) {
  ReadyStale = true;
  Memory = C.Memory;
  for (size_t I = 0; I < Threads.size(); ++I) {
    Threads[I].Pc = C.Threads[I].Pc;
    Threads[I].State = C.Threads[I].State;
    Threads[I].Regs = C.Threads[I].Regs;
    Threads[I].CallStack = C.Threads[I].CallStack;
    Threads[I].Rnd = C.Threads[I].Rnd;
  }
  MutexOwner = C.MutexOwner;
  MutexWaiters = C.MutexWaiters;
  Sched = C.Sched;
  Migration = C.Migration;
  CpuBinding = C.CpuBinding;
  Steps = C.Steps;
  Counters = C.Counters;
  CurThread = C.CurThread;
  SliceLeft = C.SliceLeft;
  Errors.resize(C.NumErrors);
  Prints.resize(C.NumPrints);
  Schedule.resize(C.ScheduleLen);
  // Replay state is part of the snapshot: a rollback taken across a
  // setReplaySchedule/clearReplaySchedule transition must resume in the
  // scheduling mode that was active at the checkpoint, following the
  // same recording from the same position.
  Replay = C.Replay;
  ReplayPos = C.ReplayPos;
  Replaying = C.Replaying;
  RunEndNotified = false;
}
