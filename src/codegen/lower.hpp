// Lowering: ScheduledModel -> vm::Program.
//
// This is the reproduction's equivalent of the paper's code synthesis with
// branch instrumentation: every model decision becomes a *real conditional
// jump* in the bytecode, with coverage instructions (kCov / kMcdcEval)
// inserted in each arm exactly where the paper's CoverageStatistics() calls
// go (Figure 4). Three orthogonal switches:
//
//   * model_instrumentation — the paper's model-level branch instrumentation
//     (modes (a)-(d)). When OFF, boolean/min/abs/sign logic is compiled
//     branch-free (as Clang -O2 does), and no condition instrumentation is
//     emitted — this is the "Fuzz Only" configuration of Figure 8.
//   * edge_instrumentation — code-level edge marks (kEdge) at every *real*
//     branch arm, i.e. what an off-the-shelf fuzzer's compiler
//     instrumentation would see. Used as the "Fuzz Only" feedback signal.
//   * record_margins — numeric distance-to-flip recording (kMargin) used by
//     the constraint-solving baseline's guided search; never on in fuzzing.
//
// Every program LowerToBytecode returns has been through vm::Optimize.
#pragma once

#include "sched/schedule.hpp"
#include "support/status.hpp"
#include "vm/program.hpp"

namespace cftcg::codegen {

struct LoweringOptions {
  bool model_instrumentation = true;
  bool edge_instrumentation = false;
  bool record_margins = false;
};

/// Lowers and then runs the bytecode optimizer (vm/optimize.hpp).
Result<vm::Program> LowerToBytecode(const sched::ScheduledModel& sm, const LoweringOptions& opts);

namespace internal {
/// The lowering's output before vm::Optimize — the reference the optimizer's
/// differential test compares against. Not for production use.
Result<vm::Program> LowerToRawBytecode(const sched::ScheduledModel& sm,
                                       const LoweringOptions& opts);
}  // namespace internal

}  // namespace cftcg::codegen
