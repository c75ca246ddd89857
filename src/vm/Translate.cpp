//===- vm/Translate.cpp ---------------------------------------------------===//

#include "vm/Translate.h"

using namespace svd;
using namespace svd::vm;
using isa::Instruction;
using isa::ThreadId;

TransCache::TransCache(const isa::Program &P) : Prog(P) {
  PerThread.resize(P.numThreads());
  for (ThreadId Tid = 0; Tid < P.numThreads(); ++Tid) {
    const std::vector<Instruction> &Code = P.Threads[Tid].Code;
    std::vector<MicroOp> &Ops = PerThread[Tid];
    Ops.resize(Code.size());
    for (uint32_t Pc = 0; Pc < Code.size(); ++Pc) {
      const Instruction &I = Code[Pc];
      Ops[Pc] = {I.Op, I.Rd, I.Ra, I.Rb, I.Imm, &I};
    }
  }
}
