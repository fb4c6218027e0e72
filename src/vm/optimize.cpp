#include "vm/optimize.hpp"

#include <algorithm>
#include <array>
#include <climits>
#include <cstdint>
#include <vector>

#include "ir/dtype.hpp"

namespace cftcg::vm {
namespace {

/// The register file an operand field names (kNone: not a register).
enum class File : std::uint8_t { kNone, kD, kI };

struct Operands {
  File dst = File::kNone;
  File a = File::kNone;
  File b = File::kNone;
  File aux = File::kNone;
};

constexpr Operands OperandsOfOp(Op op) {
  constexpr File N = File::kNone;
  constexpr File D = File::kD;
  constexpr File I = File::kI;
  switch (op) {
    case Op::kHalt:
    case Op::kJmp:
    case Op::kCov:
    case Op::kEdge: return {};
    case Op::kLoadConstD:
    case Op::kLoadInD:
    case Op::kLoadStateD: return {D};
    case Op::kLoadConstI:
    case Op::kLoadInI:
    case Op::kLoadStateI: return {I};
    case Op::kMovD:
    case Op::kNegD: case Op::kAbsD: case Op::kSignD: case Op::kSqrtD: case Op::kExpD:
    case Op::kLogD: case Op::kFloorD: case Op::kCeilD: case Op::kRoundD: case Op::kSinD:
    case Op::kCosD: case Op::kTanD: return {D, D};
    case Op::kMovI:
    case Op::kWrapI:
    case Op::kBoolI:
    case Op::kNegI: case Op::kAbsI: case Op::kSignI: case Op::kNotL: return {I, I};
    case Op::kCvtDToI:
    case Op::kBoolD: return {I, D};
    case Op::kCvtIToD: return {D, I};
    case Op::kAddD: case Op::kSubD: case Op::kMulD: case Op::kDivD: case Op::kMinD:
    case Op::kMaxD: case Op::kModD: case Op::kRemD: case Op::kPowD: case Op::kAtan2D:
      return {D, D, D};
    case Op::kAddI: case Op::kSubI: case Op::kMulI: case Op::kDivI: case Op::kMinI:
    case Op::kMaxI: case Op::kModI: case Op::kRemI: case Op::kAndBitsI: case Op::kOrBitsI:
    case Op::kXorBitsI: case Op::kShlI: case Op::kShrI: return {I, I, I};
    case Op::kLtD: case Op::kLeD: case Op::kGtD: case Op::kGeD: case Op::kEqD: case Op::kNeD:
    case Op::kLtDJz: case Op::kLeDJz: case Op::kGtDJz: case Op::kGeDJz: case Op::kEqDJz:
    case Op::kNeDJz: return {I, D, D};
    case Op::kLtI: case Op::kLeI: case Op::kGtI: case Op::kGeI: case Op::kEqI: case Op::kNeI:
    case Op::kLtIJz: case Op::kLeIJz: case Op::kGtIJz: case Op::kGeIJz: case Op::kEqIJz:
    case Op::kNeIJz: return {I, I, I};
    case Op::kJmpIfZero:
    case Op::kJmpIfNotZero:
    case Op::kStoreOutI:
    case Op::kStoreStateI:
    case Op::kCovSel: return {N, I};
    case Op::kStoreOutD:
    case Op::kStoreStateD:
    case Op::kMargin: return {N, D};
    case Op::kMcdcEval: return {N, I, I, I};
  }
  return {};
}

/// OperandsOfOp as a table: the passes look every instruction up several
/// times, and a table load is far cheaper than the switch's indirect jump.
constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kCovSel) + 1;
constexpr auto kOperandTable = [] {
  std::array<Operands, kNumOps> table{};
  for (std::size_t i = 0; i < kNumOps; ++i) table[i] = OperandsOfOp(static_cast<Op>(i));
  return table;
}();

Operands OperandsOf(Op op) { return kOperandTable[static_cast<std::size_t>(op)]; }

bool IsJump(Op op) {
  return op == Op::kJmp || op == Op::kJmpIfZero || op == Op::kJmpIfNotZero ||
         (op >= Op::kLtDJz && op <= Op::kNeIJz);
}

bool IsEqualityCompare(Op op) {
  return op == Op::kEqD || op == Op::kNeD || op == Op::kEqI || op == Op::kNeI;
}

/// The fused compare+jz for a compare, or kHalt for anything else. Both
/// runs of opcodes list lt, le, gt, ge, eq, ne in the same order.
Op FusedWithJz(Op op) {
  if (op < Op::kLtD || op > Op::kNeI) return Op::kHalt;
  return static_cast<Op>(static_cast<int>(Op::kLtDJz) +
                         (static_cast<int>(op) - static_cast<int>(Op::kLtD)));
}

class Optimizer {
 public:
  explicit Optimizer(Program& program)
      : p_(program), nd_(program.num_dregs), nregs_(program.num_dregs + program.num_iregs) {}

  OptimizeStats Run() {
    OptimizeStats stats;
    if (!Analyze()) return stats;
    std::vector<char> removed(p_.code.size(), 0);
    stats.dead_removed = EliminateDeadCode(removed);
    stats.pooled = PoolConstants(removed);
    Compact(removed);
    FuseBranches(stats);
    return stats;
  }

 private:
  /// One index space over both register files: d-registers first.
  [[nodiscard]] int Key(File f, std::int32_t reg) const { return f == File::kD ? reg : nd_ + reg; }

  template <typename F>
  void ForEachSource(const Insn& in, const Operands& ops, F&& f) const {
    if (ops.a != File::kNone) f(Key(ops.a, in.a));
    if (ops.b != File::kNone) f(Key(ops.b, in.b));
    if (ops.aux != File::kNone) f(Key(ops.aux, in.aux));
  }

  static bool Removable(const Insn& in) {
    return OperandsOf(in.op).dst != File::kNone && !IsJump(in.op) && !IsEqualityCompare(in.op);
  }

  /// The one scan every rewrite shares: checks operand ranges and jump
  /// targets (false: leave the program alone), then counts definitions and
  /// uses per register, the first and last use, the jump edges, and the
  /// removable definitions of each register in compressed-row form.
  bool Analyze() {
    const auto& code = p_.code;
    const auto n = static_cast<std::int64_t>(code.size());
    const auto in_range = [&](File f, std::int32_t reg) {
      return f == File::kNone || (reg >= 0 && reg < (f == File::kD ? nd_ : nregs_ - nd_));
    };
    const auto nr = static_cast<std::size_t>(nregs_);
    defs_.assign(nr, 0);
    uses_.assign(nr, 0);
    first_use_.assign(nr, INT_MAX);
    last_use_.assign(nr, -1);
    def_begin_.assign(nr + 1, 0);
    min_source_.assign(code.size(), INT_MAX);
    max_source_.assign(code.size(), -1);
    for (std::size_t i = 0; i < code.size(); ++i) {
      const Insn& in = code[i];
      const Operands ops = OperandsOf(in.op);
      if (!in_range(ops.dst, in.dst) || !in_range(ops.a, in.a) || !in_range(ops.b, in.b) ||
          !in_range(ops.aux, in.aux)) {
        return false;
      }
      const int at = static_cast<int>(i);
      if (IsJump(in.op)) {
        if (in.imm < 0 || in.imm >= n) return false;
        const auto t = static_cast<std::size_t>(in.imm);
        min_source_[t] = std::min(min_source_[t], at);
        max_source_[t] = std::max(max_source_[t], at);
      }
      ForEachSource(in, ops, [&](int k) {
        const auto uk = static_cast<std::size_t>(k);
        ++uses_[uk];
        first_use_[uk] = std::min(first_use_[uk], at);
        last_use_[uk] = at;
      });
      if (ops.dst != File::kNone) {
        const auto k = static_cast<std::size_t>(Key(ops.dst, in.dst));
        ++defs_[k];
        if (Removable(in)) ++def_begin_[k + 1];
      }
    }
    for (std::size_t k = 0; k < nr; ++k) def_begin_[k + 1] += def_begin_[k];
    removable_defs_.resize(static_cast<std::size_t>(def_begin_.back()));
    std::vector<int> fill(def_begin_.begin(), def_begin_.end() - 1);
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (!Removable(code[i])) continue;
      const auto k = static_cast<std::size_t>(Key(OperandsOf(code[i].op).dst, code[i].dst));
      removable_defs_[static_cast<std::size_t>(fill[k]++)] = static_cast<int>(i);
    }
    next_target_.resize(code.size() + 1);
    next_target_[code.size()] = static_cast<int>(code.size());
    for (std::size_t i = code.size(); i-- > 0;) {
      next_target_[i] = max_source_[i] >= 0 ? static_cast<int>(i) : next_target_[i + 1];
    }
    return true;
  }

  /// Rewrite 1. A register whose use count drops to zero has all its
  /// removable definitions deleted, which may in turn zero the counts of
  /// their operands. Each register is visited at most once, so the pass is
  /// linear.
  std::size_t EliminateDeadCode(std::vector<char>& removed) {
    const auto& code = p_.code;
    std::vector<int> worklist;
    for (int k = 0; k < nregs_; ++k) {
      const auto uk = static_cast<std::size_t>(k);
      if (uses_[uk] == 0 && def_begin_[uk] != def_begin_[uk + 1]) worklist.push_back(k);
    }
    std::size_t count = 0;
    while (!worklist.empty()) {
      const auto k = static_cast<std::size_t>(worklist.back());
      worklist.pop_back();
      for (int d = def_begin_[k]; d < def_begin_[k + 1]; ++d) {
        const auto i = static_cast<std::size_t>(removable_defs_[static_cast<std::size_t>(d)]);
        removed[i] = 1;
        ++count;
        --defs_[k];
        ForEachSource(code[i], OperandsOf(code[i].op), [&](int src) {
          if (--uses_[static_cast<std::size_t>(src)] == 0) worklist.push_back(src);
        });
      }
    }
    return count;
  }

  /// Rewrite 2. Dominance is checked on the linear code: a definition at p
  /// dominates its uses when all of them lie in (p, q] and no jump from
  /// outside [p, q] lands inside (p, q] — then the only way into the
  /// interval is through p itself. First and last uses still count uses
  /// that rewrite 1 deleted, which only makes the check stricter.
  std::size_t PoolConstants(std::vector<char>& removed) {
    const auto& code = p_.code;
    const auto poolable = [&](int at, int k) {
      const auto uk = static_cast<std::size_t>(k);
      if (defs_[uk] != 1 || uses_[uk] == 0 || first_use_[uk] <= at) return false;
      const int last = last_use_[uk];
      for (int t = next_target_[static_cast<std::size_t>(at) + 1]; t <= last;
           t = next_target_[static_cast<std::size_t>(t) + 1]) {
        const auto ut = static_cast<std::size_t>(t);
        if (min_source_[ut] < at || max_source_[ut] > last) return false;
      }
      return true;
    };

    std::vector<char> pooled_i(static_cast<std::size_t>(nregs_ - nd_), 0);
    std::vector<std::int64_t> value_i(pooled_i.size(), 0);
    std::vector<PooledConst<std::int64_t>> const_i;
    std::size_t count = 0;
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (removed[i]) continue;
      const Insn& in = code[i];
      const int at = static_cast<int>(i);
      const auto dst = static_cast<std::size_t>(in.dst);
      if (in.op == Op::kLoadConstD && poolable(at, Key(File::kD, in.dst))) {
        p_.const_d.push_back({in.dst, in.dimm});
      } else if (in.op == Op::kLoadConstI && poolable(at, Key(File::kI, in.dst))) {
        value_i[dst] = ir::WrapToDType(static_cast<std::int64_t>(in.dimm), in.type);
        pooled_i[dst] = 1;
        const_i.push_back({in.dst, value_i[dst]});
      } else if (in.op == Op::kCvtIToD && pooled_i[static_cast<std::size_t>(in.a)] != 0 &&
                 poolable(at, Key(File::kD, in.dst))) {
        p_.const_d.push_back({in.dst, static_cast<double>(value_i[static_cast<std::size_t>(in.a)])});
        --uses_[static_cast<std::size_t>(Key(File::kI, in.a))];
      } else {
        continue;
      }
      removed[i] = 1;
      ++count;
    }
    // An integer constant read only by pooled conversions needs no slot.
    for (const auto& c : const_i) {
      if (uses_[static_cast<std::size_t>(Key(File::kI, c.reg))] != 0) p_.const_i.push_back(c);
    }
    return count;
  }

  /// Rewrites 3 and 4 in one scan. Neither moves a jump target, so the jump
  /// in-counts taken before the scan stay valid throughout it.
  void FuseBranches(OptimizeStats& stats) {
    auto& code = p_.code;
    const std::size_t n = code.size();
    std::vector<int> in_count(n, 0);
    for (const Insn& in : code) {
      if (IsJump(in.op)) ++in_count[static_cast<std::size_t>(in.imm)];
    }
    // Rewrite 4's pattern at i: `jz r,L1; cov T; jmp L2; L1: cov F; L2:`,
    // where the jz's own jump is the only way into the false arm and nothing
    // jumps into the true arm.
    const auto polarity_at = [&](std::size_t i) {
      return i + 3 < n && code[i].op == Op::kJmpIfZero && code[i + 1].op == Op::kCov &&
             code[i + 2].op == Op::kJmp && code[i + 3].op == Op::kCov &&
             static_cast<std::size_t>(code[i].imm) == i + 3 &&
             static_cast<std::size_t>(code[i + 2].imm) == i + 4 && in_count[i + 1] == 0 &&
             in_count[i + 2] == 0 && in_count[i + 3] == 1;
    };
    std::vector<char> removed(n, 0);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      Insn& in = code[i];
      if (polarity_at(i)) {
        Insn sel;
        sel.op = Op::kCovSel;
        sel.a = in.a;
        sel.imm = code[i + 1].imm;
        sel.aux = code[i + 3].imm;
        in = sel;
        removed[i + 1] = removed[i + 2] = removed[i + 3] = 1;
        ++stats.selects;
        i += 3;
        continue;
      }
      // Rewrite 3: a compare whose result the next instruction — a jz that
      // is no jump target — branches on. A jz that heads a polarity pattern
      // is left to rewrite 4: `cmp; covsel` takes two dispatches on either
      // path, the fused form two or three.
      const Op fused = FusedWithJz(in.op);
      const Insn& jz = code[i + 1];
      if (fused == Op::kHalt || jz.op != Op::kJmpIfZero || jz.a != in.dst ||
          in_count[i + 1] != 0 || polarity_at(i + 1)) {
        continue;
      }
      in.op = fused;
      in.imm = jz.imm;
      removed[i + 1] = 1;
      ++stats.fused;
      ++i;
    }
    Compact(removed);
  }

  /// Drops removed instructions. A jump to a removed instruction lands on
  /// the next kept one; the mapping is monotone, so a backward jump stays
  /// backward and a forward one forward.
  void Compact(const std::vector<char>& removed) {
    auto& code = p_.code;
    const std::size_t n = code.size();
    std::vector<std::int32_t> remap(n);
    std::int32_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      remap[i] = kept;
      if (!removed[i]) ++kept;
    }
    if (static_cast<std::size_t>(kept) == n) return;
    const bool attributed = p_.insn_block.size() == n;
    std::size_t out = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (removed[i]) continue;
      Insn in = code[i];
      if (IsJump(in.op)) in.imm = remap[static_cast<std::size_t>(in.imm)];
      code[out] = in;
      if (attributed) p_.insn_block[out] = p_.insn_block[i];
      ++out;
    }
    code.resize(out);
    if (attributed) p_.insn_block.resize(out);
  }

  Program& p_;
  int nd_;
  int nregs_;
  // Per register (Key index space), from Analyze() and kept current by
  // rewrites 1 and 2.
  std::vector<int> defs_;
  std::vector<int> uses_;
  std::vector<int> first_use_;
  std::vector<int> last_use_;
  std::vector<int> def_begin_;       // removable_defs_ row offsets, size nregs + 1
  std::vector<int> removable_defs_;  // instruction indices
  // Per instruction, from Analyze(): the lowest and highest index of a jump
  // landing there (INT_MAX / -1 when none), and the first jump target at or
  // after it (code.size() when none).
  std::vector<int> min_source_;
  std::vector<int> max_source_;
  std::vector<int> next_target_;
};

}  // namespace

OptimizeStats Optimize(Program& program) { return Optimizer(program).Run(); }

}  // namespace cftcg::vm
