#include "vm/machine.hpp"

#include <cmath>
#include <limits>

#include "support/numerics.hpp"

namespace cftcg::vm {

using namespace cftcg::num;

Machine::Machine(const Program& program) : program_(&program) {
  dregs_.assign(static_cast<std::size_t>(program.num_dregs), 0.0);
  iregs_.assign(static_cast<std::size_t>(program.num_iregs), 0);
  in_d_.assign(program.input_types.size(), 0.0);
  in_i_.assign(program.input_types.size(), 0);
  out_d_.assign(program.output_types.size(), 0.0);
  out_i_.assign(program.output_types.size(), 0);
  state_d_.resize(program.state_d.size());
  state_i_.resize(program.state_i.size());
  // Constant pool: written once here. No instruction writes these
  // registers and Reset() leaves registers alone, so they hold for good.
  for (const auto& c : program.const_d) dregs_[static_cast<std::size_t>(c.reg)] = c.value;
  for (const auto& c : program.const_i) iregs_[static_cast<std::size_t>(c.reg)] = c.value;
  Reset();
}

void Machine::Reset() {
  for (std::size_t i = 0; i < state_d_.size(); ++i) state_d_[i] = program_->state_d[i].init;
  for (std::size_t i = 0; i < state_i_.size(); ++i) {
    state_i_[i] = ir::WrapToDType(static_cast<std::int64_t>(program_->state_i[i].init),
                                  program_->state_i[i].type);
  }
}

void Machine::SetInputsFromBytes(const std::uint8_t* tuple) {
  std::size_t offset = 0;
  for (std::size_t i = 0; i < program_->input_types.size(); ++i) {
    const ir::DType t = program_->input_types[i];
    const ir::Value v = ir::Value::FromBytes(t, tuple + offset);
    if (ir::DTypeIsFloat(t)) {
      in_d_[i] = v.AsDouble();
    } else {
      in_i_[i] = v.AsInt64();
    }
    offset += ir::DTypeSize(t);
  }
}

void Machine::SetInputs(std::span<const ir::Value> values) {
  for (std::size_t i = 0; i < values.size() && i < program_->input_types.size(); ++i) {
    const ir::Value v = values[i].CastTo(program_->input_types[i]);
    if (ir::DTypeIsFloat(program_->input_types[i])) {
      in_d_[i] = v.AsDouble();
    } else {
      in_i_[i] = v.AsInt64();
    }
  }
}

ir::Value Machine::GetOutput(int index) const {
  const auto i = static_cast<std::size_t>(index);
  const ir::DType t = program_->output_types[i];
  if (ir::DTypeIsFloat(t)) return ir::Value::Real(t, out_d_[i]);
  return ir::Value::Int(t, out_i_[i]);
}

bool Machine::Step(coverage::CoverageSink* sink, std::uint8_t* edge_map) {
  // Specialized dispatch loops: the detached path compiles with zero
  // profiling code (not even a per-dispatch branch), the count-only path is
  // a single increment per dispatch, and only the strobe path carries the
  // sampling countdown.
  if (profile_ == nullptr) return StepImpl<ProfileMode::kOff>(sink, edge_map);
  if (profile_->strobe_period == 0) return StepImpl<ProfileMode::kCount>(sink, edge_map);
  return StepImpl<ProfileMode::kStrobe>(sink, edge_map);
}

template <Machine::ProfileMode kMode>
bool Machine::StepImpl(coverage::CoverageSink* sink, std::uint8_t* edge_map) {
  constexpr bool kCounting = kMode != ProfileMode::kOff;
  constexpr bool kStrobing = kMode == ProfileMode::kStrobe;
  const Insn* code = program_->code.data();
  double* d = dregs_.data();
  std::int64_t* r = iregs_.data();
  std::size_t pc = 0;
  // Back-edge budget: decremented only on backward control transfers, so the
  // common straight-line path pays nothing. 0 configured = unlimited.
  std::uint64_t back_jumps =
      step_budget_ == 0 ? std::numeric_limits<std::uint64_t>::max() : step_budget_;
  // Counting covers every dispatch — including the final kHalt and the
  // aborted tail of a hang — so Σ insn_counts equals total dispatches. The
  // strobe countdown lives in a register for the duration of the iteration
  // and is written back at every exit, so the sampled positions stay a pure
  // function of the executed instruction stream across Step() calls.
  [[maybe_unused]] std::uint64_t* prof_counts = nullptr;
  [[maybe_unused]] std::uint64_t strobe_period = 0;
  [[maybe_unused]] std::uint64_t strobe_countdown = 0;
  if constexpr (kCounting) {
    prof_counts = profile_->insn_counts.data();
    ++profile_->steps;
  }
  if constexpr (kStrobing) {
    strobe_period = profile_->strobe_period;
    strobe_countdown = profile_->strobe_countdown;
  }
  // Hang abort (back-edge budget exhausted): flush strobe state, then false.
  auto abort_hang = [&]() -> bool {
    if constexpr (kStrobing) profile_->strobe_countdown = strobe_countdown;
    return false;
  };

  for (;;) {
    const Insn& in = code[pc];
    if constexpr (kCounting) ++prof_counts[pc];
    if constexpr (kStrobing) {
      // Instruction-count strobe (timed mode): one sample every N
      // dispatches, no clock read.
      if (--strobe_countdown == 0) {
        strobe_countdown = strobe_period;
        ++profile_->insn_samples[pc];
      }
    }
    switch (in.op) {
      case Op::kHalt:
        if constexpr (kStrobing) profile_->strobe_countdown = strobe_countdown;
        return true;
      case Op::kLoadConstD: d[in.dst] = in.dimm; break;
      case Op::kLoadConstI:
        // Wrap to the declared width: an out-of-range literal (e.g. a
        // negative saturation bound wired to an unsigned signal) must behave
        // like the same assignment in the generated C.
        r[in.dst] = ir::WrapToDType(static_cast<std::int64_t>(in.dimm), in.type);
        break;
      case Op::kMovD: d[in.dst] = d[in.a]; break;
      case Op::kMovI: r[in.dst] = r[in.a]; break;
      case Op::kCvtDToI: {
        r[in.dst] = ir::WrapToDType(TruncToI64(d[in.a]), in.type);
        break;
      }
      case Op::kCvtIToD: d[in.dst] = static_cast<double>(r[in.a]); break;
      case Op::kWrapI: r[in.dst] = ir::WrapToDType(r[in.a], in.type); break;
      case Op::kBoolD: r[in.dst] = d[in.a] != 0.0; break;
      case Op::kBoolI: r[in.dst] = r[in.a] != 0; break;

      case Op::kAddD: d[in.dst] = d[in.a] + d[in.b]; break;
      case Op::kSubD: d[in.dst] = d[in.a] - d[in.b]; break;
      case Op::kMulD: d[in.dst] = d[in.a] * d[in.b]; break;
      case Op::kDivD: d[in.dst] = SafeDiv(d[in.a], d[in.b]); break;
      case Op::kMinD: d[in.dst] = std::fmin(d[in.a], d[in.b]); break;
      case Op::kMaxD: d[in.dst] = std::fmax(d[in.a], d[in.b]); break;
      case Op::kModD: d[in.dst] = SafeMod(d[in.a], d[in.b]); break;
      case Op::kRemD: d[in.dst] = SafeRem(d[in.a], d[in.b]); break;
      case Op::kPowD: d[in.dst] = Finite(std::pow(d[in.a], d[in.b])); break;
      case Op::kAtan2D: d[in.dst] = std::atan2(d[in.a], d[in.b]); break;
      case Op::kNegD: d[in.dst] = -d[in.a]; break;
      case Op::kAbsD: d[in.dst] = std::fabs(d[in.a]); break;
      case Op::kSignD: d[in.dst] = (d[in.a] > 0.0) ? 1.0 : ((d[in.a] < 0.0) ? -1.0 : 0.0); break;
      case Op::kSqrtD: d[in.dst] = SafeSqrt(d[in.a]); break;
      case Op::kExpD: d[in.dst] = Finite(std::exp(d[in.a])); break;
      case Op::kLogD: d[in.dst] = SafeLog(d[in.a]); break;
      case Op::kFloorD: d[in.dst] = std::floor(d[in.a]); break;
      case Op::kCeilD: d[in.dst] = std::ceil(d[in.a]); break;
      case Op::kRoundD: d[in.dst] = std::nearbyint(d[in.a]); break;
      case Op::kSinD: d[in.dst] = std::sin(d[in.a]); break;
      case Op::kCosD: d[in.dst] = std::cos(d[in.a]); break;
      case Op::kTanD: d[in.dst] = Finite(std::tan(d[in.a])); break;

      case Op::kAddI: r[in.dst] = ir::WrapToDType(r[in.a] + r[in.b], in.type); break;
      case Op::kSubI: r[in.dst] = ir::WrapToDType(r[in.a] - r[in.b], in.type); break;
      case Op::kMulI: r[in.dst] = ir::WrapToDType(r[in.a] * r[in.b], in.type); break;
      case Op::kDivI: r[in.dst] = ir::WrapToDType(SafeDivI(r[in.a], r[in.b]), in.type); break;
      case Op::kMinI: r[in.dst] = r[in.a] < r[in.b] ? r[in.a] : r[in.b]; break;
      case Op::kMaxI: r[in.dst] = r[in.a] > r[in.b] ? r[in.a] : r[in.b]; break;
      case Op::kModI: r[in.dst] = ir::WrapToDType(SafeModI(r[in.a], r[in.b]), in.type); break;
      case Op::kRemI: r[in.dst] = ir::WrapToDType(SafeRemI(r[in.a], r[in.b]), in.type); break;
      case Op::kNegI: r[in.dst] = ir::WrapToDType(-r[in.a], in.type); break;
      case Op::kAbsI: r[in.dst] = ir::WrapToDType(r[in.a] < 0 ? -r[in.a] : r[in.a], in.type); break;
      case Op::kSignI: r[in.dst] = (r[in.a] > 0) ? 1 : ((r[in.a] < 0) ? -1 : 0); break;
      case Op::kAndBitsI: r[in.dst] = ir::WrapToDType(r[in.a] & r[in.b], in.type); break;
      case Op::kOrBitsI: r[in.dst] = ir::WrapToDType(r[in.a] | r[in.b], in.type); break;
      case Op::kXorBitsI: r[in.dst] = ir::WrapToDType(r[in.a] ^ r[in.b], in.type); break;
      case Op::kShlI: {
        const auto sh = static_cast<std::uint64_t>(r[in.b] & 63);
        r[in.dst] = ir::WrapToDType(static_cast<std::int64_t>(
                                        static_cast<std::uint64_t>(r[in.a]) << sh),
                                    in.type);
        break;
      }
      case Op::kShrI: {
        const auto sh = r[in.b] & 63;
        r[in.dst] = ir::WrapToDType(r[in.a] >> sh, in.type);
        break;
      }
      case Op::kNotL: r[in.dst] = r[in.a] == 0; break;

      // Compares. A fused form (made by vm::Optimize) then acts as the jz
      // on its result — see `compared:` below.
      case Op::kLtD: case Op::kLtDJz: r[in.dst] = d[in.a] < d[in.b]; goto compared;
      case Op::kLeD: case Op::kLeDJz: r[in.dst] = d[in.a] <= d[in.b]; goto compared;
      case Op::kGtD: case Op::kGtDJz: r[in.dst] = d[in.a] > d[in.b]; goto compared;
      case Op::kGeD: case Op::kGeDJz: r[in.dst] = d[in.a] >= d[in.b]; goto compared;
      case Op::kEqD:
      case Op::kEqDJz:
        r[in.dst] = d[in.a] == d[in.b];
        if (cmp_trace_ != nullptr && d[in.a] != d[in.b]) {
          cmp_trace_->RecordDouble(d[in.a], d[in.b]);
        }
        goto compared;
      case Op::kNeD:
      case Op::kNeDJz:
        r[in.dst] = d[in.a] != d[in.b];
        if (cmp_trace_ != nullptr && d[in.a] != d[in.b]) {
          cmp_trace_->RecordDouble(d[in.a], d[in.b]);
        }
        goto compared;
      case Op::kLtI: case Op::kLtIJz: r[in.dst] = r[in.a] < r[in.b]; goto compared;
      case Op::kLeI: case Op::kLeIJz: r[in.dst] = r[in.a] <= r[in.b]; goto compared;
      case Op::kGtI: case Op::kGtIJz: r[in.dst] = r[in.a] > r[in.b]; goto compared;
      case Op::kGeI: case Op::kGeIJz: r[in.dst] = r[in.a] >= r[in.b]; goto compared;
      case Op::kEqI:
      case Op::kEqIJz:
        r[in.dst] = r[in.a] == r[in.b];
        if (cmp_trace_ != nullptr && r[in.a] != r[in.b]) {
          cmp_trace_->RecordInt(r[in.a], r[in.b]);
        }
        goto compared;
      case Op::kNeI:
      case Op::kNeIJz:
        r[in.dst] = r[in.a] != r[in.b];
        if (cmp_trace_ != nullptr && r[in.a] != r[in.b]) {
          cmp_trace_->RecordInt(r[in.a], r[in.b]);
        }
        goto compared;

      case Op::kJmp: goto take_jump;
      case Op::kJmpIfZero:
        if (r[in.a] == 0) goto take_jump;
        break;
      case Op::kJmpIfNotZero:
        if (r[in.a] != 0) goto take_jump;
        break;

      case Op::kLoadInD: d[in.dst] = in_d_[static_cast<std::size_t>(in.imm)]; break;
      case Op::kLoadInI: r[in.dst] = in_i_[static_cast<std::size_t>(in.imm)]; break;
      case Op::kStoreOutD: out_d_[static_cast<std::size_t>(in.imm)] = d[in.a]; break;
      case Op::kStoreOutI: out_i_[static_cast<std::size_t>(in.imm)] = r[in.a]; break;
      case Op::kLoadStateD: d[in.dst] = state_d_[static_cast<std::size_t>(in.imm)]; break;
      case Op::kLoadStateI: r[in.dst] = state_i_[static_cast<std::size_t>(in.imm)]; break;
      case Op::kStoreStateD: state_d_[static_cast<std::size_t>(in.imm)] = d[in.a]; break;
      case Op::kStoreStateI: state_i_[static_cast<std::size_t>(in.imm)] = r[in.a]; break;

      case Op::kCov:
        if (sink != nullptr) sink->Hit(in.imm);
        break;
      case Op::kEdge:
        if (edge_map != nullptr) edge_map[in.imm] = 1;
        break;
      case Op::kMcdcEval:
        if (sink != nullptr) {
          sink->RecordEval(in.imm, static_cast<std::uint32_t>(r[in.a]),
                           static_cast<std::uint32_t>(r[in.b]), static_cast<int>(r[in.aux]));
        }
        break;
      case Op::kMargin:
        if (sink != nullptr) sink->RecordMargin(in.imm, in.b, in.aux, d[in.a]);
        break;
      case Op::kCovSel:
        if (sink != nullptr) sink->Hit(r[in.a] != 0 ? in.imm : in.aux);
        break;
    }
    ++pc;
    continue;
  compared:
    // A plain compare falls through. A fused one jumps when its result is
    // zero, which keeps NaN operands on the jump path exactly as the
    // unfused compare and jz do.
    if (in.op < Op::kLtDJz || r[in.dst] != 0) {
      ++pc;
      continue;
    }
  take_jump: {
    // Every taken jump lands here. Only backward transfers count against
    // the budget, so the common straight-line path pays nothing.
    const auto target = static_cast<std::size_t>(in.imm);
    if (target <= pc && --back_jumps == 0) return abort_hang();
    pc = target;
  }
  }
}

}  // namespace cftcg::vm
