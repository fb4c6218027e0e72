// Differential test of the bytecode optimizer (vm/optimize.hpp).
//
// The oracle is the lowering's own unoptimized output. For the eight bench
// models and the random models of random_model_test, the raw and the
// optimized program run the same seeded tuple streams and must agree on
// everything an iteration exposes: outputs, the per-iteration coverage
// bitmap, MCDC evaluation sets, code-level edges, margins, CmpTrace
// contents, and hang verdicts under a step budget. Same-seed campaigns must
// end in the same corpus and coverage fingerprints on every engine. Each
// rewrite also has a hand-built unit test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_models/bench_models.hpp"
#include "cftcg/pipeline.hpp"
#include "codegen/lower.hpp"
#include "fuzz/parallel.hpp"
#include "fuzz/supervisor.hpp"
#include "random_model.hpp"
#include "support/rng.hpp"
#include "vm/machine.hpp"
#include "vm/optimize.hpp"

namespace cftcg {
namespace {

using ir::DType;
using vm::Insn;
using vm::Op;
using vm::Program;

std::unique_ptr<CompiledModel> Compile(std::unique_ptr<ir::Model> model) {
  auto cm = CompiledModel::FromModel(std::move(model));
  EXPECT_TRUE(cm.ok()) << cm.message();
  return cm.take();
}

Program Lower(const CompiledModel& cm, const codegen::LoweringOptions& opts, bool optimize) {
  auto p = optimize ? codegen::LowerToBytecode(cm.scheduled(), opts)
                    : codegen::internal::LowerToRawBytecode(cm.scheduled(), opts);
  EXPECT_TRUE(p.ok()) << p.message();
  return p.take();
}

bool HasOp(const Program& p, Op op) {
  for (const Insn& in : p.code) {
    if (in.op == op) return true;
  }
  return false;
}

/// The three programs a CompiledModel hands out.
std::vector<std::pair<const char*, codegen::LoweringOptions>> Variants() {
  codegen::LoweringOptions instrumented;
  codegen::LoweringOptions fuzz_only;
  fuzz_only.model_instrumentation = false;
  fuzz_only.edge_instrumentation = true;
  codegen::LoweringOptions margins;
  margins.record_margins = true;
  return {{"instrumented", instrumented}, {"fuzz-only", fuzz_only}, {"margins", margins}};
}

bool SameBits(const ir::Value& a, const ir::Value& b) {
  if (a.type() != b.type()) return false;
  if (ir::DTypeIsFloat(a.type())) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof x) == 0;
  }
  return a.AsInt64() == b.AsInt64();
}

bool SameTrace(const vm::CmpTrace& a, const vm::CmpTrace& b) {
  const vm::CmpTrace::State x = a.Save();
  const vm::CmpTrace::State y = b.Save();
  return x.ints == y.ints &&
         std::memcmp(x.doubles.data(), y.doubles.data(), sizeof x.doubles) == 0 &&
         x.int_idx == y.int_idx && x.int_count == y.int_count && x.double_idx == y.double_idx &&
         x.double_count == y.double_count;
}

/// One machine with everything it can report into.
struct Lane {
  Lane(const Program& p, const coverage::CoverageSpec& spec, std::uint64_t budget)
      : machine(p), sink(spec), edges(static_cast<std::size_t>(p.num_edges), 0) {
    machine.set_cmp_trace(&trace);
    machine.set_step_budget(budget);
    margins.Reset(spec);
    sink.set_margin_recorder(&margins);
  }
  vm::Machine machine;
  coverage::CoverageSink sink;
  coverage::MarginRecorder margins;
  vm::CmpTrace trace;
  std::vector<std::uint8_t> edges;
};

/// Drives `raw` and `opt` with one seeded tuple stream (a fresh test case
/// every 25 tuples) and requires identical observable behaviour.
void ExpectSameBehaviour(const Program& raw, const Program& opt,
                         const coverage::CoverageSpec& spec, std::uint64_t seed, int steps,
                         std::uint64_t budget, const std::string& label) {
  ASSERT_EQ(raw.input_types, opt.input_types) << label;
  ASSERT_EQ(raw.output_types, opt.output_types) << label;
  ASSERT_EQ(raw.num_edges, opt.num_edges) << label;
  ASSERT_EQ(opt.insn_block.size(), opt.code.size()) << label;
  Lane a(raw, spec, budget);
  Lane b(opt, spec, budget);
  Rng rng(seed);
  std::vector<std::uint8_t> tuple(raw.TupleSize());
  for (int step = 0; step < steps; ++step) {
    if (step % 25 == 0) {
      a.machine.Reset();
      b.machine.Reset();
      a.margins.ResetRun();
      b.margins.ResetRun();
    }
    rng.FillBytes(tuple.data(), tuple.size());
    for (Lane* l : {&a, &b}) {
      l->sink.BeginIteration();
      std::fill(l->edges.begin(), l->edges.end(), 0);
      l->machine.SetInputsFromBytes(tuple.data());
    }
    const bool done_a = a.machine.Step(&a.sink, a.edges.data());
    const bool done_b = b.machine.Step(&b.sink, b.edges.data());
    ASSERT_EQ(done_a, done_b) << label << ": hang verdicts differ at step " << step;
    for (int o = 0; o < a.machine.num_outputs(); ++o) {
      ASSERT_TRUE(SameBits(a.machine.GetOutput(o), b.machine.GetOutput(o)))
          << label << ": output " << o << " at step " << step << ": "
          << a.machine.GetOutput(o).ToString() << " vs " << b.machine.GetOutput(o).ToString();
    }
    ASSERT_EQ(a.sink.curr(), b.sink.curr()) << label << ": coverage at step " << step;
    ASSERT_EQ(a.edges, b.edges) << label << ": edges at step " << step;
    ASSERT_TRUE(SameTrace(a.trace, b.trace)) << label << ": CmpTrace at step " << step;
    a.sink.AccumulateIteration();
    b.sink.AccumulateIteration();
    for (std::size_t d = 0; d < spec.decisions().size(); ++d) {
      for (int k = 0; k < spec.decisions()[d].num_outcomes; ++k) {
        const auto id = static_cast<coverage::DecisionId>(d);
        ASSERT_EQ(a.margins.Distance(id, k), b.margins.Distance(id, k))
            << label << ": margin of decision " << d << " outcome " << k << " at step " << step;
      }
    }
  }
  EXPECT_EQ(a.sink.total(), b.sink.total()) << label;
  EXPECT_EQ(a.sink.evals(), b.sink.evals()) << label << ": MCDC evaluation sets";
}

// -- Raw vs optimized on real models ---------------------------------------

class BenchModelOptTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchModelOptTest, OptimizedMatchesRaw) {
  auto model = bench_models::Build(GetParam());
  ASSERT_TRUE(model.ok()) << model.message();
  auto cm = Compile(model.take());
  for (const auto& [name, opts] : Variants()) {
    const Program raw = Lower(*cm, opts, false);
    const Program opt = Lower(*cm, opts, true);
    EXPECT_LT(opt.code.size(), raw.code.size()) << name;
    // Budget 4: any loop that runs past four back edges is a hang.
    ExpectSameBehaviour(raw, opt, cm->spec(), 17, 600, 4, GetParam() + " " + name);
  }
}

TEST_P(BenchModelOptTest, MarginsOffEmitsNoMarginArithmetic) {
  auto model = bench_models::Build(GetParam());
  ASSERT_TRUE(model.ok()) << model.message();
  auto cm = Compile(model.take());
  const Program raw = Lower(*cm, codegen::LoweringOptions{}, false);
  // Margin distances (a sub.d feeding kMargin) are emitted only with
  // record_margins on; the default lowering must not leave dead ones for
  // the optimizer to delete. Dead-code elimination is the only rewrite
  // that removes a sub.d.
  const auto subs = [](const Program& p) {
    return std::count_if(p.code.begin(), p.code.end(),
                         [](const Insn& in) { return in.op == Op::kSubD; });
  };
  EXPECT_FALSE(HasOp(raw, Op::kMargin));
  EXPECT_EQ(subs(raw), subs(Lower(*cm, codegen::LoweringOptions{}, true)));
}

INSTANTIATE_TEST_SUITE_P(AllModels, BenchModelOptTest,
                         ::testing::Values("CPUTask", "AFC", "TCP", "RAC", "EVCS", "TWC", "UTPC",
                                           "SolarPV"),
                         [](const auto& info) { return info.param; });

class RandomModelOptTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomModelOptTest, OptimizedMatchesRaw) {
  // The same generator and seeds as random_model_test.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  auto cm = Compile(testing_models::RandomModel(rng));
  ASSERT_NE(cm, nullptr);
  for (const auto& [name, opts] : Variants()) {
    ExpectSameBehaviour(Lower(*cm, opts, false), Lower(*cm, opts, true), cm->spec(),
                        rng.NextU64(), 200, 4,
                        "random " + std::to_string(GetParam()) + " " + name);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomModelOptTest, ::testing::Range(0, 40));

// -- Whole campaigns ----------------------------------------------------------

fuzz::FuzzBudget ExecBudget(std::uint64_t max_executions) {
  fuzz::FuzzBudget budget;
  budget.wall_seconds = 600;
  budget.max_executions = max_executions;
  return budget;
}

void ExpectSameCampaign(const fuzz::CampaignResult& a, const fuzz::CampaignResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.executions, b.executions) << label;
  EXPECT_EQ(a.corpus_fingerprint, b.corpus_fingerprint) << label;
  EXPECT_EQ(a.coverage_fingerprint, b.coverage_fingerprint) << label;
  EXPECT_EQ(a.report.mcdc_covered, b.report.mcdc_covered) << label;
}

TEST(BytecodeOptCampaignTest, SameSeedSameCampaignOnEveryEngine) {
  for (const char* name : {"AFC", "TWC"}) {
    auto model = bench_models::Build(name);
    ASSERT_TRUE(model.ok()) << model.message();
    auto cm = Compile(model.take());
    const Program raw = Lower(*cm, codegen::LoweringOptions{}, false);
    fuzz::FuzzerOptions options;
    options.seed = 11;
    const std::string label = name;

    fuzz::Fuzzer seq_raw(raw, cm->spec(), options);
    fuzz::Fuzzer seq_opt(cm->instrumented(), cm->spec(), options);
    ExpectSameCampaign(seq_raw.Run(ExecBudget(3000)), seq_opt.Run(ExecBudget(3000)),
                       label + " -j1");

    fuzz::ParallelOptions par;
    par.num_workers = 4;
    par.sync_every = 256;
    fuzz::ParallelFuzzer par_raw(raw, cm->spec(), options, par);
    fuzz::ParallelFuzzer par_opt(cm->instrumented(), cm->spec(), options, par);
    ExpectSameCampaign(par_raw.Run(ExecBudget(3000)).merged,
                       par_opt.Run(ExecBudget(3000)).merged, label + " -j4");

    fuzz::SupervisorOptions sup;
    sup.num_workers = 4;
    sup.sync_every = 256;
    fuzz::Supervisor iso_raw(raw, cm->spec(), options, sup);
    fuzz::Supervisor iso_opt(cm->instrumented(), cm->spec(), options, sup);
    ExpectSameCampaign(iso_raw.Run(ExecBudget(3000)).merged,
                       iso_opt.Run(ExecBudget(3000)).merged, label + " -j4 --isolate");
  }
}

TEST(BytecodeOptCampaignTest, SameSeedSameFuzzOnlyCampaign) {
  auto cm = Compile(bench_models::BuildAfc());
  codegen::LoweringOptions fo;
  fo.model_instrumentation = false;
  fo.edge_instrumentation = true;
  const Program raw = Lower(*cm, fo, false);
  const Program opt = Lower(*cm, fo, true);
  fuzz::FuzzerOptions options;
  options.seed = 3;
  options.model_oriented = false;
  fuzz::Fuzzer a(cm->instrumented(), cm->spec(), options, &raw);
  fuzz::Fuzzer b(cm->instrumented(), cm->spec(), options, &opt);
  ExpectSameCampaign(a.Run(ExecBudget(3000)), b.Run(ExecBudget(3000)), "AFC fuzz-only");
}

// -- One hand-built program per rewrite ---------------------------------------

Insn I(Op op, int dst = 0, int a = 0, int b = 0, int imm = 0, double dimm = 0.0,
       DType type = DType::kDouble) {
  Insn in;
  in.op = op;
  in.dst = dst;
  in.a = a;
  in.b = b;
  in.imm = imm;
  in.dimm = dimm;
  in.type = type;
  return in;
}

Program MakeProgram(std::vector<Insn> code, int dregs, int iregs, std::vector<DType> inputs,
                    std::vector<DType> outputs) {
  Program p;
  p.code = std::move(code);
  p.num_dregs = dregs;
  p.num_iregs = iregs;
  p.input_types = std::move(inputs);
  p.output_types = std::move(outputs);
  return p;
}

/// Runs `steps` iterations on one fresh machine; returns every output of
/// every iteration plus the hang verdicts.
std::vector<std::string> Observe(const Program& p, const std::vector<ir::Value>& inputs,
                                 int steps, std::uint64_t budget = 0,
                                 vm::CmpTrace* trace = nullptr) {
  vm::Machine m(p);
  m.set_step_budget(budget);
  m.set_cmp_trace(trace);
  std::vector<std::string> seen;
  for (int s = 0; s < steps; ++s) {
    m.SetInputs(inputs);
    seen.push_back(m.Step(nullptr) ? "done" : "hang");
    for (int o = 0; o < m.num_outputs(); ++o) seen.push_back(m.GetOutput(o).ToString());
  }
  return seen;
}

TEST(OptimizeRewriteTest, DeadCodeEliminationKeepsEqualityCompares) {
  const Program raw = MakeProgram(
      {
          I(Op::kLoadInD, 0, 0, 0, 0),
          I(Op::kLoadInD, 1, 0, 0, 1),
          I(Op::kEqD, 0, 0, 1),   // result unread, but feeds the CmpTrace
          I(Op::kNeI, 2, 3, 3),   // likewise
          I(Op::kLtD, 1, 0, 1),   // unread: removed
          I(Op::kAddD, 2, 0, 1),  // unread: removed
          I(Op::kMulD, 3, 2, 2),  // reads only the dead add: removed with it
          I(Op::kStoreOutD, 0, 0, 0, 0),
          I(Op::kHalt),
      },
      4, 4, {DType::kDouble, DType::kDouble}, {DType::kDouble});
  Program opt = raw;
  const vm::OptimizeStats stats = vm::Optimize(opt);
  EXPECT_EQ(stats.dead_removed, 3u);
  EXPECT_TRUE(HasOp(opt, Op::kEqD));
  EXPECT_TRUE(HasOp(opt, Op::kNeI));
  EXPECT_FALSE(HasOp(opt, Op::kLtD));
  EXPECT_FALSE(HasOp(opt, Op::kMulD));
  const std::vector<ir::Value> in = {ir::Value::Double(1), ir::Value::Double(2)};
  vm::CmpTrace raw_trace;
  vm::CmpTrace opt_trace;
  EXPECT_EQ(Observe(raw, in, 2, 0, &raw_trace), Observe(opt, in, 2, 0, &opt_trace));
  EXPECT_EQ(opt_trace.double_count(), 4u);
  EXPECT_TRUE(SameTrace(raw_trace, opt_trace));
}

TEST(OptimizeRewriteTest, ConstantPoolNeedsOneDominatingDefinition) {
  const Program raw = MakeProgram(
      {
          I(Op::kLoadInI, 0, 0, 0, 0),
          I(Op::kLoadConstD, 0, 0, 0, 0, 1.5),  // d0 is defined twice: stays
          I(Op::kStoreOutD, 0, 0, 0, 0),
          I(Op::kLoadConstD, 0, 0, 0, 0, 2.5),
          I(Op::kStoreOutD, 0, 0, 0, 1),
          I(Op::kStoreOutD, 0, 1, 0, 2),        // d1 read before its definition
          I(Op::kLoadConstD, 1, 0, 0, 0, 3.5),  // so it stays
          I(Op::kJmpIfNotZero, 0, 0, 0, 9),     // jumps over d2's definition
          I(Op::kLoadConstD, 2, 0, 0, 0, 4.5),  // into one of its uses: stays
          I(Op::kStoreOutD, 0, 2, 0, 3),
          I(Op::kLoadConstI, 1, 0, 0, 0, 300, DType::kUInt8),  // pooled, wrapped to 44
          I(Op::kCvtIToD, 3, 1),                               // pooled as 44.0
          I(Op::kStoreOutD, 0, 3, 0, 4),
          I(Op::kHalt),
      },
      4, 2, {DType::kInt32}, std::vector<DType>(5, DType::kDouble));
  Program opt = raw;
  const vm::OptimizeStats stats = vm::Optimize(opt);
  EXPECT_EQ(stats.pooled, 2u);
  ASSERT_EQ(opt.const_d.size(), 1u);
  EXPECT_EQ(opt.const_d[0].reg, 3);
  EXPECT_EQ(opt.const_d[0].value, 44.0);
  EXPECT_TRUE(opt.const_i.empty()) << "i1 is read only by the pooled conversion";
  EXPECT_NE(vm::Disassemble(opt).find("; pool d3 = 44"), std::string::npos);
  for (int flag : {0, 1}) {
    const std::vector<ir::Value> in = {ir::Value::Int(DType::kInt32, flag)};
    EXPECT_EQ(Observe(raw, in, 2), Observe(opt, in, 2)) << "flag " << flag;
  }
}

TEST(OptimizeRewriteTest, FusionRefusedWhenJzIsJumpTarget) {
  const Program raw = MakeProgram(
      {
          I(Op::kLoadInD, 0, 0, 0, 0),
          I(Op::kLoadInD, 1, 0, 0, 1),
          I(Op::kLoadInI, 0, 0, 0, 2),
          I(Op::kJmpIfNotZero, 0, 0, 0, 5),  // lands on the jz, skipping the compare
          I(Op::kLtD, 0, 0, 1),
          I(Op::kJmpIfZero, 0, 0, 0, 8),
          I(Op::kStoreOutI, 0, 0, 0, 0),
          I(Op::kHalt),
          I(Op::kStoreOutI, 0, 0, 0, 1),
          I(Op::kHalt),
      },
      2, 1, {DType::kDouble, DType::kDouble, DType::kInt32}, {DType::kInt32, DType::kInt32});
  Program opt = raw;
  EXPECT_EQ(vm::Optimize(opt).fused, 0u);
  EXPECT_TRUE(HasOp(opt, Op::kLtD));
  EXPECT_TRUE(HasOp(opt, Op::kJmpIfZero));
  for (int flag : {0, 7}) {
    for (double x : {1.0, 3.0}) {
      const std::vector<ir::Value> in = {ir::Value::Double(x), ir::Value::Double(2),
                                         ir::Value::Int(DType::kInt32, flag)};
      EXPECT_EQ(Observe(raw, in, 1), Observe(opt, in, 1));
    }
  }
}

TEST(OptimizeRewriteTest, FusedDoubleCompareBranchesOnNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Op compares[] = {Op::kLtD, Op::kLeD, Op::kGtD, Op::kGeD, Op::kEqD, Op::kNeD};
  const Op fused[] = {Op::kLtDJz, Op::kLeDJz, Op::kGtDJz, Op::kGeDJz, Op::kEqDJz, Op::kNeDJz};
  for (std::size_t c = 0; c < std::size(compares); ++c) {
    const Program raw = MakeProgram(
        {
            I(Op::kLoadInD, 0, 0, 0, 0),
            I(Op::kLoadInD, 1, 0, 0, 1),
            I(Op::kLoadInI, 1, 0, 0, 2),
            I(compares[c], 0, 0, 1),
            I(Op::kJmpIfZero, 0, 0, 0, 7),
            I(Op::kStoreOutI, 0, 1, 0, 0),  // true arm marks output 0
            I(Op::kJmp, 0, 0, 0, 8),
            I(Op::kStoreOutI, 0, 1, 0, 1),  // false arm marks output 1
            I(Op::kStoreOutI, 0, 0, 0, 2),  // the compare's result
            I(Op::kHalt),
        },
        2, 2, {DType::kDouble, DType::kDouble, DType::kInt32},
        {DType::kInt32, DType::kInt32, DType::kInt32});
    Program opt = raw;
    ASSERT_EQ(vm::Optimize(opt).fused, 1u) << vm::OpName(compares[c]);
    ASSERT_EQ(opt.code[3].op, fused[c]);
    for (const auto& [x, y] : std::vector<std::pair<double, double>>{
             {nan, 1}, {1, nan}, {nan, nan}, {1, 2}, {2, 1}, {2, 2}}) {
      const std::vector<ir::Value> in = {ir::Value::Double(x), ir::Value::Double(y),
                                         ir::Value::Int(DType::kInt32, 1)};
      vm::CmpTrace raw_trace;
      vm::CmpTrace opt_trace;
      const auto want = Observe(raw, in, 1, 0, &raw_trace);
      EXPECT_EQ(want, Observe(opt, in, 1, 0, &opt_trace)) << vm::OpName(compares[c]) << " " << x
                                                      << " " << y;
      EXPECT_TRUE(SameTrace(raw_trace, opt_trace));
      if (std::isnan(x) || std::isnan(y)) {
        // Every compare but ne is false on NaN: the jz must be taken.
        const bool truth = compares[c] == Op::kNeD;
        EXPECT_EQ(want[1], truth ? "1" : "0") << vm::OpName(compares[c]);
        EXPECT_EQ(want[2], truth ? "0" : "1") << vm::OpName(compares[c]);
      }
    }
  }
}

TEST(OptimizeRewriteTest, BackEdgeLoopHangsAtSameBudget) {
  // while (k < n) k += 1;  — the loop head is a fused compare whose jz
  // exits forward; the back edge is the jmp.
  const Program while_loop = MakeProgram(
      {
          I(Op::kLoadInI, 0, 0, 0, 0),
          I(Op::kLoadConstI, 1, 0, 0, 0, 0, DType::kInt32),
          I(Op::kLoadConstI, 2, 0, 0, 0, 1, DType::kInt32),
          I(Op::kLtI, 3, 1, 0),
          I(Op::kJmpIfZero, 0, 3, 0, 7),
          I(Op::kAddI, 1, 1, 2, 0, 0, DType::kInt32),
          I(Op::kJmp, 0, 0, 0, 3),
          I(Op::kStoreOutI, 0, 1, 0, 0),
          I(Op::kHalt),
      },
      0, 4, {DType::kInt32}, {DType::kInt32});
  // do k += 1; while (!(k >= n));  — the fused compare's own jump is the
  // back edge.
  const Program do_loop = MakeProgram(
      {
          I(Op::kLoadInI, 0, 0, 0, 0),
          I(Op::kLoadConstI, 1, 0, 0, 0, 0, DType::kInt32),
          I(Op::kLoadConstI, 2, 0, 0, 0, 1, DType::kInt32),
          I(Op::kAddI, 1, 1, 2, 0, 0, DType::kInt32),
          I(Op::kGeI, 3, 1, 0),
          I(Op::kJmpIfZero, 0, 3, 0, 3),
          I(Op::kStoreOutI, 0, 1, 0, 0),
          I(Op::kHalt),
      },
      0, 4, {DType::kInt32}, {DType::kInt32});
  for (const Program* raw : {&while_loop, &do_loop}) {
    Program opt = *raw;
    ASSERT_EQ(vm::Optimize(opt).fused, 1u);
    int hangs = 0;
    int completions = 0;
    for (std::uint64_t budget : {1, 2, 3, 5}) {
      for (int n = 0; n <= 8; ++n) {
        const std::vector<ir::Value> in = {ir::Value::Int(DType::kInt32, n)};
        const auto want = Observe(*raw, in, 1, budget);
        EXPECT_EQ(want, Observe(opt, in, 1, budget)) << "budget " << budget << " n " << n;
        (want[0] == "hang" ? hangs : completions)++;
      }
    }
    EXPECT_GT(hangs, 0);
    EXPECT_GT(completions, 0);
  }
}

TEST(OptimizeRewriteTest, PolaritySelectNeedsAClosedPattern) {
  // jz r,L1; cov T; jmp L2; L1: cov F; L2:  — first closed, then with an
  // outside jump into the true arm, which must keep the pattern intact.
  std::vector<Insn> code = {
      I(Op::kLoadInI, 0, 0, 0, 0),
      I(Op::kLoadInI, 1, 0, 0, 1),
      I(Op::kJmpIfZero, 0, 0, 0, 5),
      I(Op::kCov, 0, 0, 0, 0),
      I(Op::kJmp, 0, 0, 0, 6),
      I(Op::kCov, 0, 0, 0, 1),
      I(Op::kHalt),
  };
  Program closed = MakeProgram(code, 0, 2, {DType::kInt32, DType::kInt32}, {});
  EXPECT_EQ(vm::Optimize(closed).selects, 1u);
  EXPECT_TRUE(HasOp(closed, Op::kCovSel));
  EXPECT_EQ(closed.code.size(), 3u);  // ldin.i, covsel, halt: the unread ldin.i is dead

  code.insert(code.begin() + 2, I(Op::kJmpIfNotZero, 0, 1, 0, 4));  // into `cov T`
  for (Insn& in : code) {
    if (in.op == Op::kJmp || in.op == Op::kJmpIfZero) ++in.imm;
  }
  Program open = MakeProgram(code, 0, 2, {DType::kInt32, DType::kInt32}, {});
  EXPECT_EQ(vm::Optimize(open).selects, 0u);
  EXPECT_FALSE(HasOp(open, Op::kCovSel));
}

}  // namespace
}  // namespace cftcg
