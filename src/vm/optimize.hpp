// Bytecode optimizer.
//
// The lowering in src/codegen emits simple, unoptimized bytecode: a fresh
// register per constant, a compare into a register followed by a jz on it,
// and a four-instruction if/else of kCov marks per instrumented boolean.
// codegen::LowerToBytecode runs Optimize() on every program it returns; it
// is the stand-in for the Clang -O2 the paper compiles its fuzz code with.
// Four rewrites, in this order:
//
//   1. Dead-code elimination: a pure instruction whose result register is
//      never read is removed (a linear worklist over def/use counts).
//      eq/ne compares stay (they feed the CmpTrace dictionary), as do
//      coverage, margin, store and control-flow instructions.
//   2. Constant pool: a ldc.d / ldc.i (or a cvt.i2d of a pooled ldc.i)
//      whose register has exactly one definition, and whose definition
//      dominates every use, becomes a Program::const_d / const_i entry that
//      the Machine constructor writes once.
//   3. Compare+branch fusion: a compare directly followed by the jz on its
//      result (the jz not being a jump target) becomes one kLtDJz..kNeIJz.
//   4. Polarity select: `jz r,L1; cov T; jmp L2; L1: cov F; L2:` with no
//      other jump into it becomes `covsel r,T,F`.
//
// What an iteration does that anyone can see is unchanged: outputs, state,
// coverage hits, MCDC evaluations, margins, CmpTrace records, and the count
// of backward jumps that the hang budget limits. Every register that is
// read keeps its value at every read. Jump targets and Program::insn_block
// are remapped, so the profiler's per-block rows still sum to the total
// dispatches.
#pragma once

#include <cstddef>

#include "vm/program.hpp"

namespace cftcg::vm {

struct OptimizeStats {
  std::size_t dead_removed = 0;    // rewrite 1
  std::size_t pooled = 0;          // rewrite 2: constant loads removed
  std::size_t fused = 0;           // rewrite 3
  std::size_t selects = 0;         // rewrite 4
};

/// Optimizes `program` in place. A program whose register operands or jump
/// targets are out of range is left unchanged.
OptimizeStats Optimize(Program& program);

}  // namespace cftcg::vm
