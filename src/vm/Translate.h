//===- vm/Translate.h - Decode-once translation cache ------------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution engine's instruction representation (DESIGN.md section
/// 16). Every thread's code is decoded exactly once into a flat micro-op
/// array — operands as plain register indices next to each other — and
/// the machine executes nothing else: the burst loop and every
/// single-step path index the array by pc (vm/DispatchLoop.cpp). The
/// cache is immutable after construction: programs cannot be
/// self-modifying, so there is no invalidation, and one cache can be
/// shared read-only by any number of machines over the same program.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_VM_TRANSLATE_H
#define SVD_VM_TRANSLATE_H

#include "isa/Isa.h"
#include "isa/Program.h"

#include <cstdint>
#include <vector>

namespace svd {
namespace vm {

/// One decoded micro-op: the instruction's fields flattened next to each
/// other plus a pointer back to the static instruction (events expose
/// it). Micro-ops are 1:1 with pcs, so the op at pc P lives at index P
/// of the thread's array and execution can resume at any pc — after a
/// blocking Lock, a restored checkpoint, or a stepped prefix.
struct MicroOp {
  isa::Opcode Op = isa::Opcode::Nop;
  isa::Reg Rd = 0;
  isa::Reg Ra = 0;
  isa::Reg Rb = 0;
  isa::Word Imm = 0;
  const isa::Instruction *Instr = nullptr;
};

/// Immutable per-program translation cache: every thread's code decoded
/// into micro-ops, keyed by pc. Eagerly built — the mini-ISA programs are
/// small enough that lazy population would buy nothing and cost a
/// per-lookup branch.
class TransCache {
public:
  /// Decodes all of \p P (which must outlive the cache).
  explicit TransCache(const isa::Program &P);

  const isa::Program &program() const { return Prog; }

  /// The decoded code of thread \p Tid, indexed by pc.
  const std::vector<MicroOp> &ops(isa::ThreadId Tid) const {
    return PerThread[Tid];
  }

private:
  const isa::Program &Prog;
  std::vector<std::vector<MicroOp>> PerThread;
};

} // namespace vm
} // namespace svd

#endif // SVD_VM_TRANSLATE_H
