#include "bench.hpp"

#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "fuzz/csv_export.hpp"
#include "fuzz/mutator.hpp"
#include "obs/metrics.hpp"
#include "sim/interpreter.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "vm/machine.hpp"
#include "xml/xml.hpp"

namespace cbench {

using namespace cftcg;

namespace {

std::string Str(std::uint64_t v) { return std::to_string(v); }

/// Exact value equality, except that any two NaNs agree: NaN payloads are
/// not part of the block semantics the executors promise to share.
bool SameValue(const ir::Value& a, const ir::Value& b) {
  if (a.type() != b.type()) return false;
  if (ir::DTypeIsFloat(a.type())) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return x == y || (std::isnan(x) && std::isnan(y));
  }
  return a.AsInt64() == b.AsInt64();
}

std::string SameBits(const DynamicBitset& a, const DynamicBitset& b, const char* what) {
  if (a.size() != b.size()) {
    return std::string(what) + " bitmap sizes differ: " + Str(a.size()) + " vs " + Str(b.size());
  }
  if (const std::size_t d = a.CountDifferences(b); d != 0) {
    return std::string(what) + " coverage differs in " + Str(d) + " slot(s)";
  }
  return "";
}

std::string SameReport(const coverage::MetricReport& a, const coverage::MetricReport& b,
                       const char* what) {
  if (a.outcome_covered != b.outcome_covered ||
      a.condition_polarity_covered != b.condition_polarity_covered ||
      a.mcdc_covered != b.mcdc_covered || a.outcome_total != b.outcome_total ||
      a.condition_polarity_total != b.condition_polarity_total ||
      a.mcdc_total != b.mcdc_total) {
    return std::string(what) + " reports differ: " + coverage::FormatReport(a) + " vs " +
           coverage::FormatReport(b);
  }
  return "";
}

}  // namespace

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

namespace {

/// Sum of a `phase.<name>.seconds` histogram the pipeline records into the
/// global registry; 0 before the phase first runs.
double PhaseSeconds(const char* phase) {
  const obs::RegistrySnapshot snap = obs::Registry::Global().Snapshot();
  const obs::HistogramSnapshot* h =
      snap.FindHistogram(std::string("phase.") + phase + ".seconds");
  return h == nullptr ? 0 : h->sum;
}

std::unique_ptr<FrontEnd> Finish(const std::string& name,
                                 Result<std::unique_ptr<CompiledModel>> compiled, Spans& spans,
                                 std::string* error) {
  if (!compiled.ok()) {
    *error = name + ": " + compiled.message();
    return nullptr;
  }
  auto fe = std::make_unique<FrontEnd>();
  fe->name = name;
  fe->compiled = compiled.take();
  spans.Time("analysis.analyze_s", [&] { fe->compiled->analysis(); });
  fe->analysis = &fe->compiled->analysis();
  spans.Time("analysis.slices_s", [&] { fe->compiled->slices(); });
  const ir::Model& model = fe->compiled->model();
  for (ir::BlockId id : model.Inports()) fe->inport_names.push_back(model.block(id).name());
  return fe;
}

}  // namespace

std::unique_ptr<FrontEnd> LoadFrontEnd(const std::string& name, const std::string& xml_text,
                                       Spans& spans, std::string* error) {
  if (!spans.on()) return Finish(name, CompiledModel::FromXml(xml_text), spans, error);
  auto doc = spans.Time("xml.parse_s", [&] { return xml::Parse(xml_text); });
  if (!doc.ok()) {
    *error = name + ": " + doc.message();
    return nullptr;
  }
  const double parse0 = PhaseSeconds("parse");
  const double sched0 = PhaseSeconds("analyze_schedule");
  const double lower0 = PhaseSeconds("codegen");
  auto compiled = CompiledModel::FromXml(xml_text);
  spans.Add("parser.load_s", PhaseSeconds("parse") - parse0);
  spans.Add("sched.schedule_s", PhaseSeconds("analyze_schedule") - sched0);
  spans.Add("codegen.lower_s", PhaseSeconds("codegen") - lower0);
  return Finish(name, std::move(compiled), spans, error);
}

std::unique_ptr<FrontEnd> CompileModel(const std::string& name,
                                       std::unique_ptr<ir::Model> model, Spans& spans,
                                       std::string* error) {
  return Finish(name, CompiledModel::FromModel(std::move(model)), spans, error);
}

int Objectives(const coverage::MetricReport& r) {
  return r.outcome_covered + r.condition_polarity_covered + r.mcdc_covered;
}

std::string CheckBounds(const coverage::MetricReport& r) {
  const auto within = [](int covered, int total) { return covered >= 0 && covered <= total; };
  if (!within(r.outcome_covered, r.outcome_total) ||
      !within(r.condition_polarity_covered, r.condition_polarity_total) ||
      !within(r.mcdc_covered, r.mcdc_total)) {
    return "covered exceeds total: DC " + Str(r.outcome_covered) + "/" + Str(r.outcome_total) +
           ", CC " + Str(r.condition_polarity_covered) + "/" +
           Str(r.condition_polarity_total) + ", MCDC " + Str(r.mcdc_covered) + "/" +
           Str(r.mcdc_total);
  }
  return "";
}

coverage::CoverageSink ReplayOnInterpreter(const FrontEnd& fe, const Suite& suite) {
  const std::size_t tuple = fe.program().TupleSize();
  sim::Interpreter interp(fe.sm(), /*log_signals=*/false);
  coverage::CoverageSink sink(fe.spec());
  for (const std::vector<std::uint8_t>& data : suite) {
    interp.Reset();
    for (std::size_t off = 0; tuple > 0 && off + tuple <= data.size(); off += tuple) {
      sink.BeginIteration();
      interp.SetInputsFromBytes(data.data() + off);
      interp.Step(&sink);
      sink.AccumulateIteration();
    }
  }
  return sink;
}

std::string CheckReducedSuite(const FrontEnd& fe, const Suite& reduced,
                              const coverage::MetricReport& campaign, DynamicBitset* covered) {
  const coverage::CoverageSink sink = ReplayOnInterpreter(fe, reduced);
  const coverage::MetricReport r = coverage::ComputeReport(sink);
  if (r.outcome_total != campaign.outcome_total ||
      r.condition_polarity_total != campaign.condition_polarity_total ||
      r.mcdc_total != campaign.mcdc_total) {
    return "replayed objective totals differ from the campaign's";
  }
  if (r.outcome_covered != campaign.outcome_covered ||
      r.condition_polarity_covered != campaign.condition_polarity_covered) {
    return "reduced suite replays to DC " + Str(r.outcome_covered) + "/" + Str(r.outcome_total) +
           " CC " + Str(r.condition_polarity_covered) + "/" + Str(r.condition_polarity_total) +
           " but the campaign reports DC " + Str(campaign.outcome_covered) + " CC " +
           Str(campaign.condition_polarity_covered);
  }
  if (r.mcdc_covered > campaign.mcdc_covered) {
    return "reduced suite replays to more MCDC (" + Str(r.mcdc_covered) +
           ") than the campaign measured (" + Str(campaign.mcdc_covered) + ")";
  }
  *covered = sink.total();
  return "";
}

std::string ParseExportedSuite(const FrontEnd& fe, const std::vector<std::string>& csv_texts,
                               Suite* parsed, std::size_t* unreadable) {
  const fuzz::TupleLayout layout(fe.program().input_types);
  parsed->clear();
  for (std::size_t i = 0; i < csv_texts.size(); ++i) {
    auto data = fuzz::CsvToTestCase(layout, csv_texts[i]);
    if (data.ok()) {
      parsed->push_back(data.take());
      continue;
    }
    // Read the file again with its subnormal double cells zeroed, walking
    // rows and cells the way CsvToTestCase does (blank lines and the header
    // skipped), then put the cells' values back into the parsed bytes.
    struct Cell {
      std::size_t row, field;
      double value;
    };
    std::vector<Cell> subnormal;
    std::vector<std::string> lines;
    std::size_t row = 0;
    bool header = true;
    for (const std::string& line : SplitString(csv_texts[i], '\n')) {
      if (TrimString(line).empty() || header) {
        header = header && TrimString(line).empty();
        lines.push_back(line);
        continue;
      }
      std::vector<std::string> cells = SplitString(TrimString(line), ',');
      for (std::size_t f = 0; f < cells.size() && f < layout.num_fields(); ++f) {
        if (layout.field_type(f) != ir::DType::kDouble) continue;
        const std::string cell(TrimString(cells[f]));
        char* end = nullptr;
        const double v = std::strtod(cell.c_str(), &end);
        if (!cell.empty() && end == cell.c_str() + cell.size() &&
            std::fpclassify(v) == FP_SUBNORMAL) {
          subnormal.push_back({row, f, v});
          cells[f] = "0";
        }
      }
      lines.push_back(JoinStrings(cells, ","));
      ++row;
    }
    const std::string refused = "test case " + Str(i) + " does not parse back: " + data.message();
    if (subnormal.empty()) return refused;
    auto patched = fuzz::CsvToTestCase(layout, JoinStrings(lines, "\n"));
    if (!patched.ok()) return refused;
    std::vector<std::uint8_t> bytes = patched.take();
    for (const Cell& c : subnormal) {
      ir::Value::Double(c.value).ToBytes(bytes.data() + c.row * layout.tuple_size() +
                                         layout.field_offset(c.field));
    }
    ++*unreadable;
    parsed->push_back(std::move(bytes));
  }
  return "";
}

std::string CheckSubnormalCsvRoundTrip(const FrontEnd& fe) {
  const fuzz::TupleLayout layout(fe.program().input_types);
  std::vector<std::uint8_t> tuple(layout.tuple_size(), 0);
  bool any = false;
  for (std::size_t f = 0; f < layout.num_fields(); ++f) {
    if (layout.field_type(f) != ir::DType::kDouble) continue;
    ir::Value::Double(DBL_MIN / 4).ToBytes(tuple.data() + layout.field_offset(f));
    any = true;
  }
  if (!any) return "";
  const std::string text = fuzz::TestCaseToCsv(layout, fe.inport_names, tuple);
  auto back = fuzz::CsvToTestCase(layout, text);
  if (!back.ok()) return "an exported test case does not parse back: " + back.message();
  if (back.value() != tuple) return "an exported test case reads back to other bytes";
  return "";
}

std::string CheckMinimizedSuite(const FrontEnd& fe, const Suite& minimized,
                                const DynamicBitset& must_cover,
                                coverage::MetricReport* replayed, DynamicBitset* covered) {
  const coverage::CoverageSink sink = ReplayOnInterpreter(fe, minimized);
  const DynamicBitset& total = sink.total();
  if (total.size() != must_cover.size()) return "minimized suite has a different slot space";
  for (std::size_t slot = 0; slot < must_cover.size(); ++slot) {
    if (must_cover.Test(slot) && !total.Test(slot)) {
      return "minimized suite lost slot " + Str(slot) + " (" +
             Str(total.Count()) + " covered, " + Str(must_cover.Count()) + " required)";
    }
  }
  *replayed = coverage::ComputeReport(sink);
  *covered = total;
  return "";
}

std::string CheckUnreachableNeverCovered(const coverage::JustificationSet& just,
                                         const DynamicBitset& covered) {
  for (std::size_t slot = 0; slot < covered.size(); ++slot) {
    if (covered.Test(slot) && just.SlotExcluded(static_cast<int>(slot))) {
      return "slot " + Str(slot) + " was proved unreachable (" +
             just.SlotReason(static_cast<int>(slot)) + ") but is covered";
    }
  }
  return "";
}

std::string CheckNewSlotsSum(const fuzz::CampaignResult& result) {
  if (result.hangs > 0) return "";  // a quarantined input's slots are not booked
  std::uint64_t sum = 0;
  for (const fuzz::TestCase& tc : result.test_cases) sum += tc.new_slots;
  const auto covered = static_cast<std::uint64_t>(result.report.outcome_covered +
                                                  result.report.condition_polarity_covered);
  if (sum != covered) {
    return "test cases book " + Str(sum) + " new slots but the campaign covered " + Str(covered);
  }
  return "";
}

std::string CheckCheckpointRoundTrip(const std::string& bytes, Spans& spans,
                                     fuzz::CampaignCheckpoint* parsed) {
  auto decoded = spans.Time("checkpoint.decode_s", [&] { return fuzz::ParseCheckpoint(bytes); });
  if (!decoded.ok()) return "checkpoint does not parse: " + decoded.message();
  const std::string again =
      spans.Time("checkpoint.encode_s", [&] { return fuzz::SerializeCheckpoint(decoded.value()); });
  spans.Add("checkpoint.bytes", static_cast<double>(bytes.size()));
  if (again != bytes) {
    return "checkpoint re-serializes to different bytes (" + Str(again.size()) + " vs " +
           Str(bytes.size()) + ")";
  }
  *parsed = decoded.take();
  return "";
}

std::string CheckSameCampaign(const fuzz::CampaignResult& a, const fuzz::CampaignResult& b) {
  if (a.executions != b.executions || a.model_iterations != b.model_iterations) {
    return "executions/iterations differ: " + Str(a.executions) + "/" + Str(a.model_iterations) +
           " vs " + Str(b.executions) + "/" + Str(b.model_iterations);
  }
  if (a.corpus_fingerprint != b.corpus_fingerprint) return "corpus fingerprints differ";
  if (a.coverage_fingerprint != b.coverage_fingerprint) return "coverage fingerprints differ";
  if (std::string e = SameReport(a.report, b.report, "coverage"); !e.empty()) return e;
  if (a.test_cases.size() != b.test_cases.size()) {
    return "test case counts differ: " + Str(a.test_cases.size()) + " vs " +
           Str(b.test_cases.size());
  }
  for (std::size_t i = 0; i < a.test_cases.size(); ++i) {
    if (a.test_cases[i].data != b.test_cases[i].data) return "test case " + Str(i) + " differs";
  }
  return "";
}

std::string CheckSameParallelCampaign(const fuzz::ParallelCampaignResult& a,
                                      const fuzz::ParallelCampaignResult& b) {
  if (std::string e = CheckSameCampaign(a.merged, b.merged); !e.empty()) return e;
  if (a.corpus_signatures != b.corpus_signatures) return "corpus signature sets differ";
  if (a.worker_executions != b.worker_executions) return "per-worker executions differ";
  if (a.imports != b.imports) return "corpus import counts differ";
  return "";
}

std::string CheckSameFrontEnd(const FrontEnd& a, const FrontEnd& b) {
  const auto differs = [](const char* what, std::size_t x, std::size_t y) {
    return std::string(what) + " differ: " + Str(x) + " vs " + Str(y);
  };
  const vm::Program& pa = a.program();
  const vm::Program& pb = b.program();
  if (pa.code.size() != pb.code.size()) {
    return differs("instruction counts", pa.code.size(), pb.code.size());
  }
  if (pa.input_types != pb.input_types || pa.output_types != pb.output_types) {
    return "inport or outport layouts differ";
  }
  if (a.compiled->NumBranches() != b.compiled->NumBranches()) {
    return differs("branch counts", a.compiled->NumBranches(), b.compiled->NumBranches());
  }
  if (a.compiled->NumBlocks() != b.compiled->NumBlocks()) {
    return differs("block counts", a.compiled->NumBlocks(), b.compiled->NumBlocks());
  }
  const std::size_t ea = a.analysis->justifications.NumExcluded();
  const std::size_t eb = b.analysis->justifications.NumExcluded();
  if (ea != eb) return differs("proved-unreachable counts", ea, eb);
  if (a.analysis->lints.size() != b.analysis->lints.size()) {
    return differs("lint finding counts", a.analysis->lints.size(), b.analysis->lints.size());
  }
  const int ca = a.compiled->slices().num_components;
  const int cb = b.compiled->slices().num_components;
  if (ca != cb) return differs("slice component counts", ca, cb);
  if (a.c_code != b.c_code) return differs("emitted C texts (bytes)", a.c_code.size(), b.c_code.size());
  return "";
}

std::string CheckFrontEndAgreement(const FrontEnd& file, const FrontEnd& twin,
                                   std::uint64_t stream_seed, std::size_t stream_tuples) {
  const CompiledModel& a = *file.compiled;
  const CompiledModel& b = *twin.compiled;
  if (a.NumBranches() != b.NumBranches()) {
    return "branch counts differ: " + Str(a.NumBranches()) + " vs twin " + Str(b.NumBranches());
  }
  if (a.NumBlocks() != b.NumBlocks()) {
    return "block counts differ: " + Str(a.NumBlocks()) + " vs twin " + Str(b.NumBlocks());
  }
  if (file.program().input_types != twin.program().input_types ||
      file.program().output_types != twin.program().output_types) {
    return "inport or outport layouts differ from the twin";
  }
  vm::Machine vm_file(a.instrumented());
  vm::Machine vm_twin(b.instrumented());
  sim::Interpreter interp(a.scheduled(), /*log_signals=*/false);
  coverage::CoverageSink cov_file(file.spec());
  coverage::CoverageSink cov_twin(twin.spec());
  coverage::CoverageSink cov_interp(file.spec());
  Rng rng(stream_seed);
  std::vector<std::uint8_t> tuple(file.program().TupleSize());
  for (std::size_t k = 0; k < stream_tuples; ++k) {
    rng.FillBytes(tuple.data(), tuple.size());
    cov_file.BeginIteration();
    cov_twin.BeginIteration();
    cov_interp.BeginIteration();
    vm_file.SetInputsFromBytes(tuple.data());
    vm_twin.SetInputsFromBytes(tuple.data());
    interp.SetInputsFromBytes(tuple.data());
    const bool ran_file = vm_file.Step(&cov_file);
    const bool ran_twin = vm_twin.Step(&cov_twin);
    interp.Step(&cov_interp);
    const std::string at = "iteration " + Str(k) + ": ";
    if (ran_file != ran_twin) return at + "step budget outcome differs from the twin";
    for (int o = 0; o < vm_file.num_outputs(); ++o) {
      const ir::Value v = vm_file.GetOutput(o);
      if (!SameValue(v, vm_twin.GetOutput(o))) {
        return at + "output " + Str(o) + " " + v.ToString() + " vs twin " +
               vm_twin.GetOutput(o).ToString();
      }
      if (!SameValue(v, interp.GetOutput(o))) {
        return at + "output " + Str(o) + " VM " + v.ToString() + " vs interpreter " +
               interp.GetOutput(o).ToString();
      }
    }
    if (std::string e = SameBits(cov_file.curr(), cov_twin.curr(), "twin"); !e.empty()) {
      return at + e;
    }
    if (std::string e = SameBits(cov_file.curr(), cov_interp.curr(), "interpreter");
        !e.empty()) {
      return at + e;
    }
    cov_file.AccumulateIteration();
    cov_twin.AccumulateIteration();
    cov_interp.AccumulateIteration();
  }
  const coverage::MetricReport r_file = coverage::ComputeReport(cov_file);
  if (std::string e = SameReport(r_file, coverage::ComputeReport(cov_twin), "twin"); !e.empty()) {
    return e;
  }
  return SameReport(r_file, coverage::ComputeReport(cov_interp), "interpreter");
}

}  // namespace cbench
