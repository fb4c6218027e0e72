// Bytecode program representation.
//
// The lowering in src/codegen compiles a scheduled model into this register
// bytecode; the Machine in machine.hpp executes it. The bytecode plays the
// role of the paper's Clang-compiled fuzz code: straight-line typed register
// operations with real conditional jumps at every model decision, plus
// explicit coverage instructions inserted by the branch instrumentation.
//
// Register model:
//   * dregs: double registers (floating signals; kSingle is computed in
//     double precision — see DESIGN.md);
//   * iregs: int64 registers (integer/boolean signals, pre-wrapped to the
//     declared width by the instruction's `type`);
//   * in_d/in_i: per-field input slots filled by the driver from one tuple;
//   * out_d/out_i: root outport slots;
//   * state_d/state_i: persistent state (delays, chart state, ...).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coverage/spec.hpp"
#include "ir/dtype.hpp"
#include "ir/value.hpp"

namespace cftcg::vm {

enum class Op : std::uint8_t {
  kHalt,
  // Constants and moves.
  kLoadConstD,  // dregs[dst] = dimm
  kLoadConstI,  // iregs[dst] = (int64)dimm (exact: all model ints fit 2^53)
  kMovD,        // dregs[dst] = dregs[a]
  kMovI,        // iregs[dst] = iregs[a]
  // Conversions.
  kCvtDToI,  // iregs[dst] = wrap(trunc(dregs[a]), type)
  kCvtIToD,  // dregs[dst] = (double)iregs[a]
  kWrapI,    // iregs[dst] = wrap(iregs[a], type)
  kBoolD,    // iregs[dst] = dregs[a] != 0
  kBoolI,    // iregs[dst] = iregs[a] != 0
  // Double arithmetic.
  kAddD, kSubD, kMulD, kDivD, kMinD, kMaxD, kModD, kRemD, kPowD, kAtan2D,
  kNegD, kAbsD, kSignD, kSqrtD, kExpD, kLogD, kFloorD, kCeilD, kRoundD,
  kSinD, kCosD, kTanD,
  // Integer arithmetic (results wrapped to `type`).
  kAddI, kSubI, kMulI, kDivI, kMinI, kMaxI, kModI, kRemI, kNegI, kAbsI, kSignI,
  kAndBitsI, kOrBitsI, kXorBitsI, kShlI, kShrI,
  kNotL,  // iregs[dst] = iregs[a] == 0
  // Comparisons (-> iregs 0/1).
  kLtD, kLeD, kGtD, kGeD, kEqD, kNeD,
  kLtI, kLeI, kGtI, kGeI, kEqI, kNeI,
  // Control flow.
  kJmp,           // pc = imm
  kJmpIfZero,     // if (!iregs[a]) pc = imm
  kJmpIfNotZero,  // if (iregs[a]) pc = imm
  // Fused compare+branch (made by vm::Optimize from a compare and the jz
  // that consumes it): iregs[dst] = a OP b; if (!iregs[dst]) pc = imm.
  // eq/ne record into the CmpTrace exactly like the unfused compare. Same
  // order as the plain compares, and after them: the Machine tells the two
  // apart by `op >= kLtDJz`.
  kLtDJz, kLeDJz, kGtDJz, kGeDJz, kEqDJz, kNeDJz,
  kLtIJz, kLeIJz, kGtIJz, kGeIJz, kEqIJz, kNeIJz,
  // I/O and state.
  kLoadInD,     // dregs[dst] = in_d[imm]
  kLoadInI,     // iregs[dst] = in_i[imm]
  kStoreOutD,   // out_d[imm] = dregs[a]
  kStoreOutI,   // out_i[imm] = iregs[a]
  kLoadStateD,  // dregs[dst] = state_d[imm]
  kLoadStateI,  // iregs[dst] = state_i[imm]
  kStoreStateD, // state_d[imm] = dregs[a]
  kStoreStateI, // state_i[imm] = iregs[a]
  // Coverage instrumentation.
  kCov,       // sink->Hit(imm)                       [model-level]
  kEdge,      // edge_map[imm] = 1                    [code-level]
  kMcdcEval,  // sink->RecordEval(imm, iregs[a], iregs[b], iregs[aux])
  kMargin,    // sink->RecordMargin(imm, b, aux, dregs[a])
  kCovSel,    // sink->Hit(iregs[a] ? imm : aux)      [made by vm::Optimize]
};

struct Insn {
  Op op = Op::kHalt;
  ir::DType type = ir::DType::kDouble;  // wrap width for integer ops
  std::int32_t dst = 0;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t imm = 0;   // jump target / slot / decision id
  std::int32_t aux = 0;
  double dimm = 0.0;
};

struct StateSlot {
  bool is_float = true;
  double init = 0.0;       // initial value (also used for int slots)
  ir::DType type = ir::DType::kDouble;
  std::string name;        // "<block path>#<k>" for debugging
};

/// One constant-pool entry: a register that holds `value` for the whole life
/// of a Machine (see vm::Optimize).
template <typename T>
struct PooledConst {
  std::int32_t reg = 0;
  T value{};
};

struct Program {
  std::vector<Insn> code;
  int num_dregs = 0;
  int num_iregs = 0;
  std::vector<StateSlot> state_d;
  std::vector<StateSlot> state_i;
  std::vector<ir::DType> input_types;   // tuple fields, root inport order
  std::vector<ir::DType> output_types;  // root outports
  int num_edges = 0;                    // code-level edge slots (kEdge)

  // Constant pool: registers the Machine constructor writes once and no
  // instruction writes again. Integer values are already wrapped to their
  // type. Filled by vm::Optimize; empty for unoptimized programs.
  std::vector<PooledConst<double>> const_d;
  std::vector<PooledConst<std::int64_t>> const_i;

  // Block attribution (the self-profiler's VM plane): for every instruction,
  // the index into block_names of the model block whose lowering emitted it,
  // or -1 for scheduler glue (prologue jumps, the final kHalt). Parallel to
  // `code`; empty for hand-built programs, which profile as all-glue.
  std::vector<std::int32_t> insn_block;
  std::vector<std::string> block_names;  // block paths, first-emission order

  /// Bytes of one input tuple (sum of input field sizes).
  [[nodiscard]] std::size_t TupleSize() const {
    std::size_t total = 0;
    for (auto t : input_types) total += ir::DTypeSize(t);
    return total;
  }
};

std::string_view OpName(Op op);

/// Human-readable disassembly (debugging, golden tests).
std::string Disassemble(const Program& program);

}  // namespace cftcg::vm
