#include "vm/program.hpp"

#include "support/strings.hpp"

namespace cftcg::vm {

std::string_view OpName(Op op) {
  switch (op) {
    case Op::kHalt: return "halt";
    case Op::kLoadConstD: return "ldc.d";
    case Op::kLoadConstI: return "ldc.i";
    case Op::kMovD: return "mov.d";
    case Op::kMovI: return "mov.i";
    case Op::kCvtDToI: return "cvt.d2i";
    case Op::kCvtIToD: return "cvt.i2d";
    case Op::kWrapI: return "wrap.i";
    case Op::kBoolD: return "bool.d";
    case Op::kBoolI: return "bool.i";
    case Op::kAddD: return "add.d";
    case Op::kSubD: return "sub.d";
    case Op::kMulD: return "mul.d";
    case Op::kDivD: return "div.d";
    case Op::kMinD: return "min.d";
    case Op::kMaxD: return "max.d";
    case Op::kModD: return "mod.d";
    case Op::kRemD: return "rem.d";
    case Op::kPowD: return "pow.d";
    case Op::kAtan2D: return "atan2.d";
    case Op::kNegD: return "neg.d";
    case Op::kAbsD: return "abs.d";
    case Op::kSignD: return "sign.d";
    case Op::kSqrtD: return "sqrt.d";
    case Op::kExpD: return "exp.d";
    case Op::kLogD: return "log.d";
    case Op::kFloorD: return "floor.d";
    case Op::kCeilD: return "ceil.d";
    case Op::kRoundD: return "round.d";
    case Op::kSinD: return "sin.d";
    case Op::kCosD: return "cos.d";
    case Op::kTanD: return "tan.d";
    case Op::kAddI: return "add.i";
    case Op::kSubI: return "sub.i";
    case Op::kMulI: return "mul.i";
    case Op::kDivI: return "div.i";
    case Op::kMinI: return "min.i";
    case Op::kMaxI: return "max.i";
    case Op::kModI: return "mod.i";
    case Op::kRemI: return "rem.i";
    case Op::kNegI: return "neg.i";
    case Op::kAbsI: return "abs.i";
    case Op::kSignI: return "sign.i";
    case Op::kAndBitsI: return "and.i";
    case Op::kOrBitsI: return "or.i";
    case Op::kXorBitsI: return "xor.i";
    case Op::kShlI: return "shl.i";
    case Op::kShrI: return "shr.i";
    case Op::kNotL: return "not.l";
    case Op::kLtD: return "lt.d";
    case Op::kLeD: return "le.d";
    case Op::kGtD: return "gt.d";
    case Op::kGeD: return "ge.d";
    case Op::kEqD: return "eq.d";
    case Op::kNeD: return "ne.d";
    case Op::kLtI: return "lt.i";
    case Op::kLeI: return "le.i";
    case Op::kGtI: return "gt.i";
    case Op::kGeI: return "ge.i";
    case Op::kEqI: return "eq.i";
    case Op::kNeI: return "ne.i";
    case Op::kJmp: return "jmp";
    case Op::kJmpIfZero: return "jz";
    case Op::kJmpIfNotZero: return "jnz";
    case Op::kLtDJz: return "lt.d.jz";
    case Op::kLeDJz: return "le.d.jz";
    case Op::kGtDJz: return "gt.d.jz";
    case Op::kGeDJz: return "ge.d.jz";
    case Op::kEqDJz: return "eq.d.jz";
    case Op::kNeDJz: return "ne.d.jz";
    case Op::kLtIJz: return "lt.i.jz";
    case Op::kLeIJz: return "le.i.jz";
    case Op::kGtIJz: return "gt.i.jz";
    case Op::kGeIJz: return "ge.i.jz";
    case Op::kEqIJz: return "eq.i.jz";
    case Op::kNeIJz: return "ne.i.jz";
    case Op::kLoadInD: return "ldin.d";
    case Op::kLoadInI: return "ldin.i";
    case Op::kStoreOutD: return "stout.d";
    case Op::kStoreOutI: return "stout.i";
    case Op::kLoadStateD: return "ldst.d";
    case Op::kLoadStateI: return "ldst.i";
    case Op::kStoreStateD: return "stst.d";
    case Op::kStoreStateI: return "stst.i";
    case Op::kCov: return "cov";
    case Op::kEdge: return "edge";
    case Op::kMcdcEval: return "mcdc";
    case Op::kMargin: return "margin";
    case Op::kCovSel: return "covsel";
  }
  return "?";
}

std::string Disassemble(const Program& program) {
  std::string out;
  out += StrFormat("; dregs=%d iregs=%d state_d=%zu state_i=%zu inputs=%zu outputs=%zu edges=%d\n",
                   program.num_dregs, program.num_iregs, program.state_d.size(),
                   program.state_i.size(), program.input_types.size(),
                   program.output_types.size(), program.num_edges);
  for (const auto& c : program.const_d) {
    out += StrFormat("; pool d%d = %s\n", c.reg, DoubleToString(c.value).c_str());
  }
  for (const auto& c : program.const_i) {
    out += StrFormat("; pool i%d = %lld\n", c.reg, static_cast<long long>(c.value));
  }
  for (std::size_t pc = 0; pc < program.code.size(); ++pc) {
    const Insn& in = program.code[pc];
    out += StrFormat("%4zu  %-8s dst=%d a=%d b=%d imm=%d aux=%d dimm=%s type=%s\n", pc,
                     std::string(OpName(in.op)).c_str(), in.dst, in.a, in.b, in.imm, in.aux,
                     DoubleToString(in.dimm).c_str(), std::string(ir::DTypeName(in.type)).c_str());
  }
  return out;
}

}  // namespace cftcg::vm
