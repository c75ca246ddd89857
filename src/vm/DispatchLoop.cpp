//===- vm/DispatchLoop.cpp - Micro-op execution engine --------------------===//
//
// The machine's only instruction semantics: execOp() executes one decoded
// micro-op (vm/Translate.h). run() drives it in bursts — a whole
// timeslice per scheduling decision — and every single-step path
// (stepOnce, stepThread, runUntil, replay, fault hooks, migration, BER
// re-execution, predict confirmation) drives it as a one-op burst.
// Determinism contract (DESIGN.md section 16): every scheduling decision,
// PRNG draw, event, counter, and piece of architectural state of run()
// is bit-identical to a stepOnce() loop. The decision logic below mirrors
// scheduleNext() draw for draw; modes that consult something on every
// single step (replay, fault hooks, OS migration) simply take stepOnce()
// instead of duplicating it.
//
//===----------------------------------------------------------------------===//

#include "support/Error.h"
#include "support/StringUtils.h"
#include "vm/Machine.h"
#include "vm/Translate.h"

#include <algorithm>
#include <cassert>

using namespace svd;
using namespace svd::vm;
using isa::Addr;
using isa::Opcode;
using isa::ThreadId;
using isa::Word;
using support::formatString;

StopReason Machine::runBursts() {
  StopReason R = StopReason::AllHalted;
  for (;;) {
    // Per-step-consultation modes take stepOnce(), which runs the same
    // execOp() as a one-op burst. Replay can end mid-run via
    // clearReplaySchedule, so this is checked every iteration, not just
    // on entry.
    if (Replaying || Cfg.Faults ||
        (Cfg.NumCpus != 0 && Cfg.MigrationInterval != 0)) {
      if (!stepOnce(R))
        return R;
      continue;
    }

    if (Steps >= Cfg.MaxSteps)
      return StopReason::StepBudget;

    // --- one scheduling decision (mirrors scheduleNext) ---------------
    // Budget is the number of steps the decision grants before the
    // MaxSteps cap; Unclamped keeps the slice arithmetic exact when the
    // step budget truncates a burst (a stepOnce() loop stops mid-slice
    // without consuming the remaining continuation decrements).
    uint64_t Budget;
    bool SerialBurst = false;
    if (SliceLeft > 0 && Threads[CurThread].State == ThreadState::Ready) {
      // Mid-slice entry (a restored checkpoint, or a mode flip while the
      // slice was live): the continuation path grants SliceLeft more
      // steps, decrementing one per step.
      Budget = SliceLeft;
    } else {
      // The ready list only changes when a thread blocks, wakes, or
      // halts; every such path raises ReadyStale, so steady-state
      // decisions reuse the buffer as-is.
      if (ReadyStale) {
        ReadyBuf.clear();
        for (ThreadId Tid = 0; Tid < Threads.size(); ++Tid)
          if (Threads[Tid].State == ThreadState::Ready)
            ReadyBuf.push_back(Tid);
        ReadyStale = false;
      }
      if (ReadyBuf.empty())
        return finished() ? StopReason::AllHalted : StopReason::Deadlock;
      if (Cfg.SerialMode) {
        if (Threads[CurThread].State != ThreadState::Ready) {
          for (ThreadId Off = 1; Off <= Threads.size(); ++Off) {
            ThreadId Tid = (CurThread + Off) % Threads.size();
            if (Threads[Tid].State == ThreadState::Ready) {
              CurThread = Tid;
              break;
            }
          }
        }
        // Serial decisions deterministically stay on the running thread
        // until it blocks or halts, so the whole stretch is one burst
        // and SliceLeft pins at 0 exactly as scheduleNext() keeps it.
        SliceLeft = 0;
        SerialBurst = true;
        Budget = Cfg.MaxSteps - Steps;
      } else {
        CurThread = ReadyBuf[Sched.nextBelow(ReadyBuf.size())];
        uint32_t Range = Cfg.MaxTimeslice - Cfg.MinTimeslice + 1;
        SliceLeft = Cfg.MinTimeslice +
                    static_cast<uint32_t>(Sched.nextBelow(Range)) - 1;
        // A fresh slice of SliceLeft = S runs S + 1 steps: one for the
        // draw decision itself plus S continuations.
        Budget = static_cast<uint64_t>(SliceLeft) + 1;
      }
    }

    uint64_t Unclamped = Budget;
    Budget = std::min(Budget, Cfg.MaxSteps - Steps);
    uint64_t N = Observers.empty() ? executeBurst<false>(Budget)
                                   : executeBurst<true>(Budget);
    if (!SerialBurst)
      SliceLeft = static_cast<uint32_t>(Unclamped - N);
  }
}

template <bool HasObs>
__attribute__((always_inline)) inline void
Machine::execOp(Thread &T, const MicroOp &U) {
  const uint32_t Pc = T.Pc;
  EventCtx Ctx;
  Ctx.Seq = Steps;
  Ctx.Tid = CurThread;
  Ctx.Cpu = CpuBinding[CurThread];
  Ctx.Pc = Pc;
  Ctx.Instr = U.Instr;

  Word *Regs = T.Regs.data();
  Word *Mem = Memory.data();
  const Word A = Regs[U.Ra];
  const Word B = Regs[U.Rb];

  // Register write helper honouring the hardwired zero register.
  auto SetReg = [&](isa::Reg Rd, Word V) {
    if (Rd != isa::ZeroReg)
      Regs[Rd] = V;
  };
  // Observer fan-out, erased entirely from the HasObs = false build.
  auto Notify = [&](auto &&F) {
    if constexpr (HasObs)
      notifyObservers(F);
  };
  // Every register-only instruction yields an event, so observers
  // tracking control-flow reconvergence see every pc.
  auto Alu = [&]() {
    ++Counters.Alu;
    Notify([&](ExecutionObserver &O) { O.onAlu(Ctx); });
    T.Pc = Pc + 1;
  };

  switch (U.Op) {
  case Opcode::Nop:
  case Opcode::Yield:
    Alu();
    return;

  case Opcode::Li:
    SetReg(U.Rd, U.Imm);
    Alu();
    return;
  case Opcode::Mov:
    SetReg(U.Rd, A);
    Alu();
    return;
  case Opcode::Tid:
    SetReg(U.Rd, CurThread);
    Alu();
    return;
  case Opcode::Rnd: {
    uint64_t V = T.Rnd.next();
    if (U.Imm > 0)
      V %= static_cast<uint64_t>(U.Imm);
    SetReg(U.Rd, static_cast<Word>(V));
    Alu();
    return;
  }

  case Opcode::Add:
    SetReg(U.Rd, A + B);
    Alu();
    return;
  case Opcode::Sub:
    SetReg(U.Rd, A - B);
    Alu();
    return;
  case Opcode::Mul:
    SetReg(U.Rd, A * B);
    Alu();
    return;
  case Opcode::Div:
    // INT64_MIN / -1 overflows (UB in C++); the machine defines it to
    // wrap to INT64_MIN, consistent with its wrapping Add/Mul.
    SetReg(U.Rd, B == 0                          ? 0
                 : A == INT64_MIN && B == -1 ? INT64_MIN
                                             : A / B);
    Alu();
    return;
  case Opcode::Rem:
    SetReg(U.Rd, B == 0 || (A == INT64_MIN && B == -1) ? 0 : A % B);
    Alu();
    return;
  case Opcode::And:
    SetReg(U.Rd, A & B);
    Alu();
    return;
  case Opcode::Or:
    SetReg(U.Rd, A | B);
    Alu();
    return;
  case Opcode::Xor:
    SetReg(U.Rd, A ^ B);
    Alu();
    return;
  case Opcode::Shl:
    SetReg(U.Rd, A << (B & 63));
    Alu();
    return;
  case Opcode::Shr:
    SetReg(U.Rd, static_cast<Word>(static_cast<uint64_t>(A) >> (B & 63)));
    Alu();
    return;
  case Opcode::Slt:
    SetReg(U.Rd, A < B ? 1 : 0);
    Alu();
    return;
  case Opcode::Sle:
    SetReg(U.Rd, A <= B ? 1 : 0);
    Alu();
    return;
  case Opcode::Seq:
    SetReg(U.Rd, A == B ? 1 : 0);
    Alu();
    return;
  case Opcode::Sne:
    SetReg(U.Rd, A != B ? 1 : 0);
    Alu();
    return;

  case Opcode::Addi:
    SetReg(U.Rd, A + U.Imm);
    Alu();
    return;
  case Opcode::Muli:
    SetReg(U.Rd, A * U.Imm);
    Alu();
    return;
  case Opcode::Andi:
    SetReg(U.Rd, A & U.Imm);
    Alu();
    return;
  case Opcode::Slti:
    SetReg(U.Rd, A < U.Imm ? 1 : 0);
    Alu();
    return;

  case Opcode::Ld: {
    int64_t EA = A + U.Imm;
    if (EA < 0 || EA >= static_cast<int64_t>(Memory.size())) {
      recordError(Ctx, formatString("fault: load from out-of-range address "
                                    "%lld",
                                    static_cast<long long>(EA)));
      haltThread(Ctx);
      return;
    }
    Word V = Mem[static_cast<Addr>(EA)];
    SetReg(U.Rd, V);
    ++Counters.Loads;
    Notify([&](ExecutionObserver &O) {
      O.onLoad(Ctx, static_cast<Addr>(EA), V);
    });
    T.Pc = Pc + 1;
    return;
  }
  case Opcode::St: {
    int64_t EA = A + U.Imm;
    if (EA < 0 || EA >= static_cast<int64_t>(Memory.size())) {
      recordError(Ctx, formatString("fault: store to out-of-range address "
                                    "%lld",
                                    static_cast<long long>(EA)));
      haltThread(Ctx);
      return;
    }
    Mem[static_cast<Addr>(EA)] = B;
    ++Counters.Stores;
    Notify([&](ExecutionObserver &O) {
      O.onStore(Ctx, static_cast<Addr>(EA), B);
    });
    T.Pc = Pc + 1;
    return;
  }

  case Opcode::Cas: {
    // The address is always absolute (validated); A holds the expected
    // value, B the replacement.
    Addr EA = static_cast<Addr>(U.Imm);
    Word Cur = Mem[EA];
    ++Counters.Loads;
    Notify([&](ExecutionObserver &O) { O.onLoad(Ctx, EA, Cur); });
    if (Cur == A) {
      Mem[EA] = B;
      SetReg(U.Rd, 1);
      ++Counters.Stores;
      Notify([&](ExecutionObserver &O) { O.onStore(Ctx, EA, B); });
    } else {
      SetReg(U.Rd, 0);
    }
    T.Pc = Pc + 1;
    return;
  }

  case Opcode::Beqz:
  case Opcode::Bnez: {
    bool Taken = (U.Op == Opcode::Beqz) ? (A == 0) : (A != 0);
    uint32_t Target = Taken ? static_cast<uint32_t>(U.Imm) : Pc + 1;
    ++Counters.Branches;
    Notify([&](ExecutionObserver &O) { O.onBranch(Ctx, Taken, Target); });
    T.Pc = Target;
    return;
  }
  case Opcode::Jmp: {
    uint32_t Target = static_cast<uint32_t>(U.Imm);
    ++Counters.Branches;
    Notify([&](ExecutionObserver &O) { O.onBranch(Ctx, true, Target); });
    T.Pc = Target;
    return;
  }
  case Opcode::Call: {
    if (T.CallStack.size() >= Cfg.MaxCallDepth) {
      // Contained like any other runtime fault: classified, thread
      // halted, rest of the run unaffected.
      recordError(Ctx, formatString("fault: call stack overflow (depth "
                                    "limit %u)",
                                    Cfg.MaxCallDepth));
      haltThread(Ctx);
      return;
    }
    // The return address Pc+1 is always in range: validation guarantees
    // a Call is never a thread's last instruction.
    uint32_t Target = static_cast<uint32_t>(U.Imm);
    T.CallStack.push_back(Pc + 1);
    ++Counters.Branches;
    Notify([&](ExecutionObserver &O) { O.onBranch(Ctx, true, Target); });
    T.Pc = Target;
    return;
  }
  case Opcode::Ret: {
    if (T.CallStack.empty()) {
      recordError(Ctx, "fault: ret with an empty call stack");
      haltThread(Ctx);
      return;
    }
    uint32_t Target = T.CallStack.back();
    T.CallStack.pop_back();
    ++Counters.Branches;
    Notify([&](ExecutionObserver &O) { O.onBranch(Ctx, true, Target); });
    T.Pc = Target;
    return;
  }

  case Opcode::Lock: {
    uint32_t M = static_cast<uint32_t>(U.Imm);
    int32_t Owner = MutexOwner[M];
    if (Owner == static_cast<int32_t>(CurThread)) {
      recordError(Ctx, formatString("fault: recursive lock of mutex '%s'",
                                    Prog.Mutexes[M].c_str()));
      haltThread(Ctx);
      return;
    }
    if (Owner >= 0) {
      // Contended: block; the step is consumed (a spin on the lock).
      ++Counters.LockSpins;
      T.State = ThreadState::Blocked;
      ReadyStale = true;
      MutexWaiters[M].push_back(CurThread);
      return;
    }
    if (Cfg.Faults && Cfg.Faults->failLockAcquire(Steps, CurThread, M)) {
      // Spurious acquire failure: the step is consumed, the pc does not
      // advance, and the thread stays Ready to retry (no owner exists
      // to wake it from the wait queue).
      ++Counters.FaultLockFailures;
      return;
    }
    MutexOwner[M] = static_cast<int32_t>(CurThread);
    ++Counters.LockAcquires;
    Notify([&](ExecutionObserver &O) { O.onLock(Ctx, M); });
    T.Pc = Pc + 1;
    return;
  }
  case Opcode::Unlock: {
    uint32_t M = static_cast<uint32_t>(U.Imm);
    if (MutexOwner[M] != static_cast<int32_t>(CurThread)) {
      recordError(Ctx, formatString("fault: unlock of mutex '%s' not held by "
                                    "thread %u",
                                    Prog.Mutexes[M].c_str(), CurThread));
      haltThread(Ctx);
      return;
    }
    MutexOwner[M] = -1;
    // Wake all waiters; they re-attempt the lock when next scheduled.
    if (!MutexWaiters[M].empty()) {
      for (ThreadId W : MutexWaiters[M])
        if (Threads[W].State == ThreadState::Blocked)
          Threads[W].State = ThreadState::Ready;
      MutexWaiters[M].clear();
      ReadyStale = true;
    }
    ++Counters.Unlocks;
    Notify([&](ExecutionObserver &O) { O.onUnlock(Ctx, M); });
    T.Pc = Pc + 1;
    return;
  }

  case Opcode::Assert:
    if (A == 0) {
      recordError(Ctx, Prog.Messages[static_cast<size_t>(U.Imm)]);
      haltThread(Ctx);
      return;
    }
    Alu();
    return;
  case Opcode::Print:
    Prints.push_back({Ctx.Seq, CurThread, A});
    ++Counters.Alu;
    Notify([&](ExecutionObserver &O) { O.onAlu(Ctx); });
    Notify([&](ExecutionObserver &O) { O.onPrint(Ctx, A); });
    T.Pc = Pc + 1;
    return;

  case Opcode::Halt:
    haltThread(Ctx);
    return;
  }
  SVD_UNREACHABLE("unhandled opcode");
}

template <bool HasObs> uint64_t Machine::executeBurst(uint64_t Budget) {
  Thread &T = Threads[CurThread];
  assert(T.State == ThreadState::Ready && "burst on a non-ready thread");
  const MicroOp *Ops = TC->ops(CurThread).data();
  uint64_t N = 0;
  while (N < Budget) {
    Schedule.push_back(CurThread);
    execOp<HasObs>(T, Ops[T.Pc]);
    ++Steps;
    ++N;
    if (T.State != ThreadState::Ready)
      break;
  }
  return N;
}

template uint64_t Machine::executeBurst<false>(uint64_t);
template uint64_t Machine::executeBurst<true>(uint64_t);

void Machine::execute() {
  if (Observers.empty())
    executeBurst<false>(1);
  else
    executeBurst<true>(1);
}
