// Self-test of the benchmark's checks: each check holds on the program's
// real outputs and rejects a deliberately damaged copy of them (a dropped
// test case, a flipped byte, a tampered count, a changed model).
//
//   campaign_bench_selftest --models DIR     (or: run.py --self-test)
//
// Exits 0 when every expectation holds.
#include <cfloat>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "bench.hpp"
#include "bench_models/bench_models.hpp"
#include "fuzz/csv_export.hpp"
#include "fuzz/mutator.hpp"
#include "fuzz/suite.hpp"
#include "fuzz/supervisor.hpp"
#include "vm/machine.hpp"

namespace cbench {
namespace {

using namespace cftcg;

int g_failures = 0;

void Holds(const std::string& error, const std::string& what) {
  std::printf("%s %s holds on real output%s%s\n", error.empty() ? "ok  " : "FAIL", what.c_str(),
              error.empty() ? "" : ": ", error.c_str());
  if (!error.empty()) ++g_failures;
}

void Rejects(const std::string& error, const std::string& what) {
  std::printf("%s check rejects %s%s%s\n", error.empty() ? "FAIL" : "ok  ", what.c_str(),
              error.empty() ? "" : ": ", error.c_str());
  if (error.empty()) ++g_failures;
}

fuzz::FuzzBudget Budget(std::uint64_t execs) {
  fuzz::FuzzBudget budget;
  budget.wall_seconds = 1e9;
  budget.max_executions = execs;
  return budget;
}

fuzz::CampaignResult Resume(const FrontEnd& fe, const fuzz::FuzzerState& state,
                            std::uint64_t execs) {
  fuzz::FuzzerOptions opts;
  opts.seed = 7;
  opts.resume = &state;
  fuzz::Fuzzer fuzzer(fe.program(), fe.spec(), opts);
  fuzzer.Begin(Budget(execs));
  fuzzer.RunChunk(std::numeric_limits<std::uint64_t>::max());
  return fuzzer.Finish();
}

fuzz::ParallelCampaignResult Threaded(const FrontEnd& fe, std::uint64_t seed) {
  fuzz::FuzzerOptions opts;
  opts.seed = seed;
  fuzz::ParallelOptions par;
  par.num_workers = 2;
  par.sync_every = 256;
  fuzz::ParallelFuzzer engine(fe.program(), fe.spec(), opts, par);
  return engine.Run(Budget(4096));
}

int Main(int argc, char** argv) {
  std::string models = "models";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]) == "--models") models = argv[i + 1];
  }
  std::string afc_text;
  if (!ReadFile(models + "/AFC.cmx", &afc_text)) {
    std::fprintf(stderr, "error: cannot read %s/AFC.cmx\n", models.c_str());
    return 2;
  }
  Spans off(false);
  std::string error;
  auto fe = LoadFrontEnd("AFC", afc_text, off, &error);
  if (fe == nullptr) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }

  // One real sequential campaign with a checkpoint half way.
  const std::uint64_t execs = 3000;
  fuzz::FuzzerOptions opts;
  opts.seed = 7;
  fuzz::Fuzzer fuzzer(fe->program(), fe->spec(), opts);
  fuzzer.Begin(Budget(execs));
  fuzzer.RunChunk(execs / 2);
  const std::string ckpt_bytes = fuzz::SerializeCheckpoint(fuzzer.MakeCheckpoint());
  fuzzer.RunChunk(std::numeric_limits<std::uint64_t>::max());
  const fuzz::CampaignResult result = fuzzer.Finish();

  // Bounds.
  Holds(CheckBounds(result.report), "covered <= total");
  {
    coverage::MetricReport bad = result.report;
    bad.condition_polarity_covered = bad.condition_polarity_total + 1;
    Rejects(CheckBounds(bad), "a report covering more than its total");
  }

  // new_slots bookkeeping.
  Holds(CheckNewSlotsSum(result), "new_slots sum");
  {
    fuzz::CampaignResult bad = result;
    bad.test_cases.pop_back();
    Rejects(CheckNewSlotsSum(bad), "a campaign with a dropped test case (new_slots sum)");
    bad = result;
    bad.test_cases[0].new_slots += 1;
    Rejects(CheckNewSlotsSum(bad), "a tampered new_slots count");
  }

  // Reduced suite against the campaign's report, on the interpreter.
  vm::Machine machine(fe->program());
  const fuzz::SuiteReduction reduction = fuzz::ReduceSuite(machine, fe->spec(), result.test_cases);
  Suite reduced;
  for (std::size_t idx : reduction.kept) reduced.push_back(result.test_cases[idx].data);
  DynamicBitset reduced_cov;
  Holds(CheckReducedSuite(*fe, reduced, result.report, &reduced_cov), "reduced-suite replay");
  {
    // The last pick added coverage no earlier pick had, so dropping it must
    // lose slots.
    Suite bad = reduced;
    bad.pop_back();
    DynamicBitset unused;
    Rejects(CheckReducedSuite(*fe, bad, result.report, &unused),
            "a reduced suite with a dropped test case");
    coverage::MetricReport inflated = result.report;
    inflated.outcome_covered += 1;
    Rejects(CheckReducedSuite(*fe, reduced, inflated, &unused),
            "a campaign report that claims one decision outcome too many");
  }

  // Minimized suite through CSV and back.
  Suite minimized;
  for (const auto& data : reduced) {
    minimized.push_back(fuzz::MinimizeTestCase(machine, fe->spec(), data,
                                               fuzz::CoverageOf(machine, fe->spec(), data)));
  }
  const fuzz::TupleLayout layout(fe->program().input_types);
  std::vector<std::string> csv;
  for (const auto& data : minimized) {
    csv.push_back(fuzz::TestCaseToCsv(layout, fe->inport_names, data));
  }
  Suite parsed;
  std::size_t unreadable = 0;
  Holds(ParseExportedSuite(*fe, csv, &parsed, &unreadable), "CSV read-back");
  Holds(parsed == minimized ? "" : "parsed bytes differ from the exported ones",
        "CSV read-back gives the exported bytes");
  {
    std::vector<std::string> bad = csv;
    const std::size_t row = bad[0].find('\n') + 1;  // first cell of the first data row
    bad[0][row] = 'x';
    Suite unused;
    std::size_t n = 0;
    Rejects(ParseExportedSuite(*fe, bad, &unused, &n), "a CSV file with a flipped byte");

    // A subnormal double is exported but refused by CsvToTestCase: the file
    // is counted as unreadable and read with that cell's own value, and a
    // flipped byte elsewhere in the same file is still caught.
    std::size_t double_field = layout.num_fields();
    for (std::size_t f = 0; f < layout.num_fields(); ++f) {
      if (layout.field_type(f) == ir::DType::kDouble) double_field = f;
    }
    if (double_field < layout.num_fields() && !minimized[0].empty()) {
      Suite sub = {minimized[0]};
      const double tiny = DBL_MIN / 4;
      std::memcpy(sub[0].data() + layout.field_offset(double_field), &tiny, sizeof tiny);
      std::vector<std::string> sub_csv = {
          fuzz::TestCaseToCsv(layout, fe->inport_names, sub[0])};
      n = 0;
      Suite back;
      const std::string e = ParseExportedSuite(*fe, sub_csv, &back, &n);
      Holds(e.empty() && n == 1 && back == sub ? "" : "subnormal cell not read back (" + e + ")",
            "subnormal CSV cell read back from the file and counted");
      const std::size_t exp = sub_csv[0].find("e-30");
      if (exp == std::string::npos) {
        Holds("no subnormal cell in the exported text", "subnormal CSV export");
      } else {
        sub_csv[0][exp] = 'x';
        Rejects(ParseExportedSuite(*fe, sub_csv, &unused, &n),
                "a subnormal CSV cell with a flipped byte");
      }
      // The harness's known-fault operation: reported, not an expectation.
      const std::string fault = CheckSubnormalCsvRoundTrip(*fe);
      std::printf("note subnormal CSV round trip: %s\n",
                  fault.empty() ? "holds" : ("fails (known fault): " + fault).c_str());
    }
  }
  coverage::MetricReport replayed;
  DynamicBitset covered;
  Holds(CheckMinimizedSuite(*fe, parsed, reduced_cov, &replayed, &covered),
        "minimized-suite replay");
  {
    Suite bad = parsed;
    bad.pop_back();
    coverage::MetricReport r;
    DynamicBitset c;
    Rejects(CheckMinimizedSuite(*fe, bad, reduced_cov, &r, &c),
            "a minimized suite with a dropped test case");
  }

  // Unreachable slots.
  Holds(CheckUnreachableNeverCovered(fe->analysis->justifications, covered),
        "proved-unreachable slots stay uncovered");
  {
    coverage::JustificationSet bad(fe->spec());
    std::size_t slot = 0;
    while (slot < covered.size() && !covered.Test(slot)) ++slot;
    bad.JustifySlot(static_cast<int>(slot), coverage::ObjectiveVerdict::kProvedUnreachable,
                    "damaged verdict");
    Rejects(CheckUnreachableNeverCovered(bad, covered), "a covered slot marked unreachable");
  }

  // Checkpoint round trip and resume.
  fuzz::CampaignCheckpoint ckpt;
  Holds(CheckCheckpointRoundTrip(ckpt_bytes, off, &ckpt), "checkpoint round trip");
  {
    fuzz::CampaignCheckpoint unused;
    std::string bad = ckpt_bytes;
    bad[0] ^= 0x01;
    Rejects(CheckCheckpointRoundTrip(bad, off, &unused), "a checkpoint with a flipped magic byte");
    bad = ckpt_bytes;
    bad.pop_back();
    Rejects(CheckCheckpointRoundTrip(bad, off, &unused), "a truncated checkpoint");
  }
  Holds(CheckSameCampaign(result, Resume(*fe, ckpt.workers[0], execs)),
        "resumed == uninterrupted");
  {
    fuzz::FuzzerState bad = ckpt.workers[0];
    bad.rng_state[0] ^= 0x01;
    Rejects(CheckSameCampaign(result, Resume(*fe, bad, execs)),
            "a resume from a checkpoint with a flipped RNG byte");
  }

  // Threaded vs isolated.
  const fuzz::ParallelCampaignResult threaded = Threaded(*fe, 11);
  {
    fuzz::FuzzerOptions popts;
    popts.seed = 11;
    fuzz::SupervisorOptions sup;
    sup.num_workers = 2;
    sup.sync_every = 256;
    fuzz::Supervisor engine(fe->program(), fe->spec(), popts, sup);
    Holds(CheckSameParallelCampaign(threaded, engine.Run(Budget(4096))),
          "threaded == isolated");
  }
  Rejects(CheckSameParallelCampaign(threaded, Threaded(*fe, 12)),
          "engines that ran different seeds");

  // Front-end agreement: the model file against its roster twin.
  auto built = bench_models::Build("AFC");
  auto twin = built.ok() ? CompileModel("AFC", built.take(), off, &error) : nullptr;
  if (twin == nullptr) {
    std::fprintf(stderr, "error: roster twin: %s\n", error.c_str());
    return 2;
  }
  Holds(CheckFrontEndAgreement(*fe, *twin, 3, 256), "model file == roster twin");
  {
    const std::string from = "<param name=\"upper\" kind=\"real\">100</param>";
    std::string changed = afc_text;
    const std::size_t at = changed.find(from);
    if (at == std::string::npos) {
      Holds("saturation parameter not found in AFC.cmx", "model edit");
    } else {
      changed.replace(at, from.size(), "<param name=\"upper\" kind=\"real\">50</param>");
      auto edited = LoadFrontEnd("AFC", changed, off, &error);
      Rejects(edited == nullptr ? "" : CheckFrontEndAgreement(*edited, *twin, 3, 256),
              "a model file with one changed saturation limit");

      // Lint loads: a second load of the same file gives the same result.
      const auto emit = [](FrontEnd& f) {
        auto c = f.compiled->EmitFuzzingCode();
        if (c.ok()) f.c_code = c.take();
      };
      auto again = LoadFrontEnd("AFC", afc_text, off, &error);
      emit(*fe);
      if (again != nullptr) emit(*again);
      if (edited != nullptr) emit(*edited);
      Holds(again == nullptr ? error : CheckSameFrontEnd(*fe, *again),
            "two loads of one model file agree");
      Rejects(edited == nullptr ? "" : CheckSameFrontEnd(*fe, *edited),
              "a load of the file with one changed saturation limit");
    }
    auto other = bench_models::Build("TCP");
    auto tcp = other.ok() ? CompileModel("TCP", other.take(), off, &error) : nullptr;
    Rejects(tcp == nullptr ? "" : CheckFrontEndAgreement(*fe, *tcp, 3, 256),
            "a model file compared with another model's twin");
  }

  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cbench

int main(int argc, char** argv) { return cbench::Main(argc, argv); }
