// Shared pieces of the whole-campaign benchmark: the front end loaded the
// way the CLI loads it (CompiledModel, each public call timed from
// outside), and the correctness checks every workload applies to the
// program's outputs.
//
// Every check returns an empty string when it holds and a one-line reason
// when it does not, so the harness can count a failed operation and go on,
// and the self-test can show that each check rejects damaged input.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "cftcg/pipeline.hpp"
#include "coverage/report.hpp"
#include "fuzz/checkpoint.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/parallel.hpp"
#include "ir/model.hpp"

namespace cbench {

using Clock = std::chrono::steady_clock;

inline double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-layer spans recorded from outside the library: each call into a
/// layer's public function is timed and summed under the layer metric's
/// name. With tracing off, Time() runs the call and reads no clock.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}

  template <typename F>
  decltype(auto) Time(const std::string& key, F&& call) {
    if (!on_) return call();
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(call())>) {
      call();
      values_[key] += Since(t0);
    } else {
      auto out = call();
      values_[key] += Since(t0);
      return out;
    }
  }
  void Add(const std::string& key, double value) {
    if (on_) values_[key] += value;
  }
  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] const std::map<std::string, double>& values() const { return values_; }

 private:
  bool on_;
  std::map<std::string, double> values_;
};

/// Reads a whole file; false when it cannot be opened.
bool ReadFile(const std::string& path, std::string* out);

/// One model after the front end, loaded the way the CLI loads it
/// (`CompiledModel`), with the lazily built analysis and slices forced.
struct FrontEnd {
  std::string name;
  std::unique_ptr<cftcg::CompiledModel> compiled;
  const cftcg::analysis::ModelAnalysis* analysis = nullptr;  // compiled->analysis()
  std::vector<std::string> inport_names;
  std::string c_code;  // compiled->EmitFuzzingCode(), when the caller emitted it

  [[nodiscard]] const cftcg::vm::Program& program() const { return compiled->instrumented(); }
  [[nodiscard]] const cftcg::sched::ScheduledModel& sm() const { return compiled->scheduled(); }
  [[nodiscard]] const cftcg::coverage::CoverageSpec& spec() const { return compiled->spec(); }
};

/// Model text to a ready model: `CompiledModel::FromXml` (parse, schedule,
/// lower with model-level instrumentation), then `analysis()` and
/// `slices()`. Traced, `parser.load_s`, `sched.schedule_s` and
/// `codegen.lower_s` are read from the phase timers FromXml records
/// (`phase.parse`, `phase.analyze_schedule`, `phase.codegen`), and
/// `xml.parse_s` is an extra standalone parse of the same text, because
/// the model parser gives no split. Null with `*error` set on failure.
std::unique_ptr<FrontEnd> LoadFrontEnd(const std::string& name, const std::string& xml_text,
                                       Spans& spans, std::string* error);

/// Same from an in-memory model (the C++ roster twin of a model file),
/// through `CompiledModel::FromModel`.
std::unique_ptr<FrontEnd> CompileModel(const std::string& name,
                                       std::unique_ptr<cftcg::ir::Model> model, Spans& spans,
                                       std::string* error);

// -- Checks ------------------------------------------------------------------

/// Decision outcomes + condition polarities + MCDC conditions covered.
int Objectives(const cftcg::coverage::MetricReport& r);

/// Covered <= total (and >= 0) for every metric of the report.
std::string CheckBounds(const cftcg::coverage::MetricReport& r);

using Suite = std::vector<std::vector<std::uint8_t>>;

/// Replays each test case from a fresh model state on the tree-walking
/// interpreter (not the VM) and returns the accumulated coverage.
cftcg::coverage::CoverageSink ReplayOnInterpreter(const FrontEnd& fe, const Suite& suite);

/// Independent check of the reduced suite: replayed on the interpreter it
/// covers exactly the campaign's decision outcomes and condition
/// polarities (ReduceSuite keeps the union coverage of the campaign's test
/// cases) and no more MCDC than the campaign measured. On success
/// `*covered` holds the suite's slot bitmap.
std::string CheckReducedSuite(const FrontEnd& fe, const Suite& reduced,
                              const cftcg::coverage::MetricReport& campaign,
                              cftcg::DynamicBitset* covered);

/// Parses exported CSV test cases back with `CsvToTestCase`.
/// `CsvToTestCase` refuses a double cell whose value is subnormal (its
/// `strtod` call reports ERANGE). Such a file is read again with every
/// subnormal cell swapped for 0 and the cell's value then written into the
/// parsed bytes, so every other cell still goes through the library's
/// reader and only what the file holds is replayed; the file is counted in
/// `*unreadable`. Any other refusal is an error.
std::string ParseExportedSuite(const FrontEnd& fe, const std::vector<std::string>& csv_texts,
                               Suite* parsed, std::size_t* unreadable);

/// The CSV round trip of one fixed test case of `fe`'s model whose double
/// inports all hold a subnormal value (DBL_MIN / 4, independent of any
/// seed): `CsvToTestCase` must read back the bytes `TestCaseToCsv` wrote.
/// Empty when the model has no double inport.
std::string CheckSubnormalCsvRoundTrip(const FrontEnd& fe);

/// Independent check of the minimized, exported suite: replayed on the
/// interpreter it still covers every slot in `must_cover` (MinimizeTestCase
/// only drops tuples that contribute nothing the case must keep). On
/// success `*replayed` and `*covered` hold its report and slot bitmap.
std::string CheckMinimizedSuite(const FrontEnd& fe, const Suite& minimized,
                                const cftcg::DynamicBitset& must_cover,
                                cftcg::coverage::MetricReport* replayed,
                                cftcg::DynamicBitset* covered);

/// No slot the analyzer proved unreachable is covered.
std::string CheckUnreachableNeverCovered(const cftcg::coverage::JustificationSet& just,
                                         const cftcg::DynamicBitset& covered);

/// Sequential campaign without quarantined hangs: the test cases' new_slots
/// add up to the fuzz-branch slots covered (decision outcomes + condition
/// polarities).
std::string CheckNewSlotsSum(const cftcg::fuzz::CampaignResult& result);

/// Parses a checkpoint and re-serializes it; the bytes must come back
/// unchanged. On success `*parsed` holds the checkpoint.
std::string CheckCheckpointRoundTrip(const std::string& bytes, Spans& spans,
                                     cftcg::fuzz::CampaignCheckpoint* parsed);

/// Two campaigns that must have reached the same state (threaded vs
/// isolated, resumed vs uninterrupted): equal fingerprints and reports.
std::string CheckSameCampaign(const cftcg::fuzz::CampaignResult& a,
                              const cftcg::fuzz::CampaignResult& b);
std::string CheckSameParallelCampaign(const cftcg::fuzz::ParallelCampaignResult& a,
                                      const cftcg::fuzz::ParallelCampaignResult& b);

/// Two loads of the same model file give the same result: program, branch
/// and block counts, analyzer verdicts and lint findings, slice
/// components and emitted C.
std::string CheckSameFrontEnd(const FrontEnd& a, const FrontEnd& b);

/// Front-end agreement: a model file and its C++ roster twin compile to the
/// same program (branch and block counts), and on one seeded random input
/// stream the file's VM, the twin's VM and the file's interpreter produce
/// identical outputs and per-iteration coverage.
std::string CheckFrontEndAgreement(const FrontEnd& file, const FrontEnd& twin,
                                   std::uint64_t stream_seed, std::size_t stream_tuples);

}  // namespace cbench
