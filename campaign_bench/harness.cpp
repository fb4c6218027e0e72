// Whole-campaign benchmark harness.
//
// Drives complete CFTCG campaigns through the library's public API — model
// file, front end, fuzzing engine, suite reduction and minimization, CSV
// export — and checks every delivered suite with an independent replay on
// the tree-walking interpreter. One run repeats identical rounds of its
// workload until --seconds have passed and reports medians over rounds.
//
//   campaign_bench --workload long-seq|many-short|parallel --seed N
//                  --seconds S --trace 0|1 --models DIR --work DIR
//
// The last line of standard output is the result object; --trace 0 reports
// the end-to-end metrics and --trace 1 the per-layer ones (see README.md).
// The exit code is 0 whenever every round ran to its end: a wrong output is
// a failed operation in the result, not a harness failure.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "bench_models/bench_models.hpp"
#include "fuzz/csv_export.hpp"
#include "fuzz/mutator.hpp"
#include "fuzz/suite.hpp"
#include "fuzz/supervisor.hpp"
#include "obs/profiler.hpp"
#include "support/atomic_file.hpp"
#include "vm/machine.hpp"

namespace cbench {
namespace {

using namespace cftcg;
namespace fs = std::filesystem;

// Every campaign is bounded by executions; this wall budget never binds, so
// a fixed seed repeats the same campaign exactly.
constexpr double kNeverBinds = 1e9;

// -- Workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  std::vector<std::string> models;
  std::uint64_t execs = 0;     // executions per campaign
  int loads_per_model = 1;     // fresh loads (one campaign each) of each model per round
  int lint_loads = 0;          // front-end-only loads of the model after each campaign
  bool parallel = false;       // threaded and isolated engines instead of the sequential one
  int workers = 1;             // workers per parallel engine
  bool agreement = false;      // many-short: file vs roster twin agreement check
  std::size_t agreement_tuples = 0;
};

const std::vector<std::string> kAllModels = {"CPUTask", "AFC",  "TCP",  "RAC",
                                             "EVCS",    "TWC",  "UTPC", "SolarPV"};

bool MakeWorkload(const std::string& name, Workload* w) {
  w->name = name;
  if (name == "long-seq") {
    w->models = kAllModels;
    w->execs = 8192;
    w->loads_per_model = 2;
  } else if (name == "many-short") {
    w->models = kAllModels;
    w->execs = 100;
    w->loads_per_model = 12;
    w->lint_loads = 4;
    w->agreement = true;
    w->agreement_tuples = 256;
  } else if (name == "parallel") {
    w->models = {"AFC", "RAC", "EVCS"};
    w->execs = 24576;
    w->parallel = true;
    // Never more workers than cores.
    w->workers = static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1U, 4U));
  } else {
    return false;
  }
  return true;
}

/// SplitMix64 finalizer: derives independent campaign seeds from the run
/// seed, the model's roster position and the load number.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + a * 0xBF58476D1CE4E5B9ULL + b + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// -- One round ---------------------------------------------------------------

struct Round {
  Round(bool trace, std::size_t models) : spans(trace), load_s(models) {}
  Spans spans;
  std::vector<std::vector<double>> load_s;  // per model, each fresh load's front-end time
  double wall_s = 0;          // the round, first load to last checked suite
  double fuzz_s = 0;          // wall time inside fuzzing engines
  std::uint64_t iters = 0;    // model iterations of the fuzzing target
  std::int64_t objectives = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t known_fault_failed = 0;  // failures of the fixed known-fault operation
  std::uint64_t unreadable_csv = 0;

  /// Set-up samples: the front-end time of one fresh load of every model,
  /// one sample per pass over the workload's models.
  [[nodiscard]] std::vector<double> SetupPasses() const {
    std::size_t passes = load_s.empty() ? 0 : load_s[0].size();
    for (const auto& l : load_s) passes = std::min(passes, l.size());
    std::vector<double> out(passes, 0.0);
    for (const auto& l : load_s) {
      for (std::size_t k = 0; k < passes; ++k) out[k] += l[k];
    }
    return out;
  }
};

class Harness {
 public:
  Harness(Workload w, std::uint64_t seed, std::string models_dir, fs::path work)
      : w_(std::move(w)), seed_(seed), models_dir_(std::move(models_dir)),
        work_(std::move(work)) {}

  /// Cold set-up: every model of the workload through the front end once,
  /// first file read to last ready model. These loads are the reference
  /// the lint loads must reproduce; the first model with a double inport
  /// also serves the known-fault CSV operation.
  bool Setup(double* seconds, std::string* error) {
    Spans off(false);
    *seconds = 0;
    for (std::size_t m = 0; m < w_.models.size(); ++m) {
      double load_s = 0;
      reference_.push_back(Load(m, off, error, &load_s));
      if (reference_.back() == nullptr) return false;
      *seconds += load_s;
      if (subnormal_probe_ == nullptr && HasDoubleInport(*reference_.back())) {
        subnormal_probe_ = reference_.back().get();
      }
    }
    return true;
  }

  void RunRound(Round& round) {
    if (subnormal_probe_ != nullptr) {
      // Fails on every run, whatever the seed, while CsvToTestCase refuses
      // subnormal doubles; so failed / attempted is the same in every run.
      Op(round, "CSV round trip of a subnormal double",
         [&] { return CheckSubnormalCsvRoundTrip(*subnormal_probe_); }, /*known_fault=*/true);
    }
    if (w_.parallel) {
      for (std::size_t m = 0; m < w_.models.size(); ++m) ParallelCampaigns(m, round);
      return;
    }
    if (w_.agreement) {
      for (std::size_t m = 0; m < w_.models.size(); ++m) {
        Op(round, w_.models[m] + " agreement", [&] { return Agreement(m); });
      }
    }
    for (int rep = 0; rep < w_.loads_per_model; ++rep) {
      for (std::size_t m = 0; m < w_.models.size(); ++m) {
        Op(round, w_.models[m] + " campaign",
           [&] { return SequentialCampaign(m, DeriveSeed(seed_, m, rep), round); });
        for (int lint = 0; lint < w_.lint_loads; ++lint) {
          Op(round, w_.models[m] + " lint load", [&] { return LintLoad(m, round); });
        }
      }
    }
  }

 private:
  static void Op(Round& round, const std::string& what, const std::function<std::string()>& body,
                 bool known_fault = false) {
    ++round.attempted;
    const std::string error = body();
    if (!error.empty()) {
      ++round.failed;
      if (known_fault) ++round.known_fault_failed;
      std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(), error.c_str());
    }
  }

  static bool HasDoubleInport(const FrontEnd& fe) {
    const auto& types = fe.program().input_types;
    return std::find(types.begin(), types.end(), ir::DType::kDouble) != types.end();
  }

  /// A user's load: model file through the full front end plus the emitted
  /// fuzzing code (the C artifact a campaign hands out). `*seconds` is the
  /// wall time from the file read to the emitted code, traced or not.
  std::unique_ptr<FrontEnd> Load(std::size_t m, Spans& spans, std::string* error,
                                 double* seconds) {
    const Clock::time_point t0 = Clock::now();
    const std::string path = models_dir_ + "/" + w_.models[m] + ".cmx";
    std::string text;
    if (!ReadFile(path, &text)) {
      *error = "cannot read " + path;
      return nullptr;
    }
    auto fe = LoadFrontEnd(w_.models[m], text, spans, error);
    if (fe == nullptr) return nullptr;
    auto c_code = spans.Time("codegen.emit_c_s", [&] { return fe->compiled->EmitFuzzingCode(); });
    *seconds = Since(t0);
    if (!c_code.ok()) {
      *error = "C emission failed: " + c_code.message();
      return nullptr;
    }
    fe->c_code = c_code.take();
    spans.Add("codegen.insns", static_cast<double>(fe->program().code.size()));
    spans.Add("analysis.proved_unreachable",
              static_cast<double>(fe->analysis->justifications.NumExcluded()));
    spans.Add("codegen.emit_c_bytes", static_cast<double>(fe->c_code.size()));
    return fe;
  }

  /// Model-lint traffic: a fresh load with no campaign, which must give
  /// what the set-up's load of the same file gave.
  std::string LintLoad(std::size_t m, Round& round) {
    std::string error;
    auto fe = TimedLoad(m, round, &error);
    if (fe == nullptr) return error;
    return CheckSameFrontEnd(*reference_[m], *fe);
  }

  /// A campaign's or a lint load; its front-end time is one set-up sample.
  std::unique_ptr<FrontEnd> TimedLoad(std::size_t m, Round& round, std::string* error) {
    double seconds = 0;
    auto fe = Load(m, round.spans, error, &seconds);
    if (fe != nullptr) round.load_s[m].push_back(seconds);
    return fe;
  }

  std::string Agreement(std::size_t m) {
    std::string error;
    Spans off(false);
    double seconds = 0;
    auto file = Load(m, off, &error, &seconds);
    if (file == nullptr) return error;
    auto built = bench_models::Build(w_.models[m]);
    if (!built.ok()) return "roster twin: " + built.message();
    auto twin = CompileModel(w_.models[m], built.take(), off, &error);
    if (twin == nullptr) return "roster twin: " + error;
    return CheckFrontEndAgreement(*file, *twin, DeriveSeed(seed_, m, 0xA9EE), w_.agreement_tuples);
  }

  /// Self-profile planes of a finished campaign, booked to their layers.
  static void BookCampaign(const fuzz::CampaignResult& r, Spans& spans) {
    const auto& ph = r.phase_profile.seconds;
    const auto at = [&](obs::ProfilePhase p) { return ph[static_cast<std::size_t>(p)]; };
    spans.Add("vm.dispatches", static_cast<double>(r.exec_profile.TotalDispatches()));
    spans.Add("vm.steps", static_cast<double>(r.exec_profile.steps));
    spans.Add("fuzz.mutate_s", at(obs::ProfilePhase::kMutate));
    spans.Add("fuzz.execute_s", at(obs::ProfilePhase::kExecute));
    spans.Add("fuzz.coverage_update_s", at(obs::ProfilePhase::kCoverageUpdate));
    spans.Add("parallel.corpus_sync_s", at(obs::ProfilePhase::kCorpusSync));
    spans.Add("parallel.idle_s", at(obs::ProfilePhase::kIdle));
    spans.Add("fuzz.execs", static_cast<double>(r.executions));
    spans.Add("fuzz.useful", static_cast<double>(r.test_cases.size()));
  }

  fuzz::FuzzerOptions Options(std::uint64_t seed, const Round& round) const {
    fuzz::FuzzerOptions opts;  // the paper's configuration: model-oriented, IDC
    opts.seed = seed;
    opts.profile_timing = round.spans.on();
    return opts;
  }

  fuzz::FuzzBudget Budget() const {
    fuzz::FuzzBudget budget;
    budget.wall_seconds = kNeverBinds;
    budget.max_executions = w_.execs;
    return budget;
  }

  /// Reduce, minimize and export the suite, then check it: independent
  /// interpreter replay plus the coverage properties.
  std::string DeliverSuite(const FrontEnd& fe, const fuzz::CampaignResult& result,
                           bool sequential, const std::string& tag, Round& round) {
    Spans& spans = round.spans;
    vm::Machine machine(fe.program());
    const std::size_t tuple = fe.program().TupleSize();
    if (spans.on()) {
      // vm.replay_iters_per_s: plain Machine::Step over the saved inputs.
      std::uint64_t iters = 0;
      const Clock::time_point t0 = Clock::now();
      for (const fuzz::TestCase& tc : result.test_cases) {
        machine.Reset();
        for (std::size_t off = 0; off + tuple <= tc.data.size(); off += tuple) {
          machine.SetInputsFromBytes(tc.data.data() + off);
          machine.Step(nullptr);
          ++iters;
        }
      }
      spans.Add("vm.replay_s", Since(t0));
      spans.Add("vm.replay_iters", static_cast<double>(iters));
    }
    const fuzz::SuiteReduction reduced = spans.Time(
        "suite.reduce_s", [&] { return fuzz::ReduceSuite(machine, fe.spec(), result.test_cases); });
    Suite kept;
    spans.Time("suite.minimize_s", [&] {
      for (std::size_t idx : reduced.kept) {
        const std::vector<std::uint8_t>& data = result.test_cases[idx].data;
        const DynamicBitset need = fuzz::CoverageOf(machine, fe.spec(), data);
        kept.push_back(fuzz::MinimizeTestCase(machine, fe.spec(), data, need));
      }
    });
    spans.Add("suite.cases_kept", static_cast<double>(kept.size()));
    for (const auto& data : kept) {
      spans.Add("suite.tuples_kept", static_cast<double>(tuple == 0 ? 0 : data.size() / tuple));
    }

    const fs::path dir = work_ / tag;
    const fuzz::TupleLayout layout(fe.program().input_types);
    std::vector<std::string> files;
    const std::string export_error = spans.Time("csv.export_s", [&]() -> std::string {
      if (Status s = support::EnsureDir(dir.string()); !s.ok()) return s.message();
      for (std::size_t i = 0; i < kept.size(); ++i) {
        char name[32];
        std::snprintf(name, sizeof name, "test_%04zu.csv", i);
        files.push_back((dir / name).string());
        const std::string text = fuzz::TestCaseToCsv(layout, fe.inport_names, kept[i]);
        if (Status s = support::WriteFileAtomic(files.back(), text); !s.ok()) return s.message();
      }
      return "";
    });
    if (!export_error.empty()) return "export: " + export_error;

    // Independent check on the interpreter: the reduced suite against the
    // campaign's report, the exported suite, read back, against the
    // reduced one.
    coverage::MetricReport replayed;
    DynamicBitset reduced_cov;
    DynamicBitset covered;
    std::size_t unreadable = 0;
    std::string error = spans.Time("sim.replay_s", [&]() -> std::string {
      Suite reduced_cases;
      for (std::size_t idx : reduced.kept) reduced_cases.push_back(result.test_cases[idx].data);
      if (std::string e = CheckReducedSuite(fe, reduced_cases, result.report, &reduced_cov);
          !e.empty()) {
        return e;
      }
      std::vector<std::string> texts(files.size());
      for (std::size_t i = 0; i < files.size(); ++i) {
        if (!ReadFile(files[i], &texts[i])) return "cannot read back " + files[i];
      }
      Suite parsed;
      if (std::string e = ParseExportedSuite(fe, texts, &parsed, &unreadable); !e.empty()) {
        return e;
      }
      return CheckMinimizedSuite(fe, parsed, reduced_cov, &replayed, &covered);
    });
    spans.Add("csv.unreadable_cases", static_cast<double>(unreadable));
    round.unreadable_csv += unreadable;
    std::error_code ec;
    fs::remove_all(dir, ec);
    if (!error.empty()) return error;
    if (error = CheckBounds(result.report); !error.empty()) return "campaign: " + error;
    if (error = CheckBounds(replayed); !error.empty()) return "replay: " + error;
    if (error = CheckUnreachableNeverCovered(fe.analysis->justifications, covered); !error.empty()) {
      return error;
    }
    if (sequential) {
      if (error = CheckNewSlotsSum(result); !error.empty()) return error;
    }
    round.objectives += Objectives(replayed);
    return "";
  }

  /// One sequential campaign with a checkpoint three quarters in: the
  /// checkpoint must re-serialize byte for byte, and a campaign resumed
  /// from it must end in the uninterrupted campaign's state.
  std::string SequentialCampaign(std::size_t m, std::uint64_t seed, Round& round) {
    std::string error;
    auto fe = TimedLoad(m, round, &error);
    if (fe == nullptr) return error;
    fuzz::FuzzerOptions opts = Options(seed, round);
    const fuzz::FuzzBudget budget = Budget();

    fuzz::CampaignResult result;
    std::string bytes;
    {
      Clock::time_point t0 = Clock::now();
      fuzz::Fuzzer fuzzer(fe->program(), fe->spec(), opts);
      fuzzer.Begin(budget);
      fuzzer.RunChunk(w_.execs * 3 / 4);
      double fuzz_s = Since(t0);
      const fuzz::CampaignCheckpoint ckpt = fuzzer.MakeCheckpoint();
      bytes = round.spans.Time("checkpoint.encode_s",
                               [&] { return fuzz::SerializeCheckpoint(ckpt); });
      t0 = Clock::now();
      fuzzer.RunChunk(std::numeric_limits<std::uint64_t>::max());
      result = fuzzer.Finish();
      fuzz_s += Since(t0);
      round.fuzz_s += fuzz_s;
      round.iters += result.model_iterations;
    }
    BookCampaign(result, round.spans);

    fuzz::CampaignCheckpoint parsed;
    if (error = CheckCheckpointRoundTrip(bytes, round.spans, &parsed); !error.empty()) {
      return error;
    }
    const std::uint64_t fp = fuzz::SpecFingerprint(fe->spec(), fe->program());
    if (Status s = fuzz::ValidateCheckpoint(parsed, opts, 1, fp); !s.ok()) {
      return "checkpoint rejected: " + s.message();
    }
    fuzz::CampaignResult resumed;
    {
      opts.resume = &parsed.workers[0];
      const Clock::time_point t0 = Clock::now();
      fuzz::Fuzzer fuzzer(fe->program(), fe->spec(), opts);
      fuzzer.Begin(budget);
      fuzzer.RunChunk(std::numeric_limits<std::uint64_t>::max());
      resumed = fuzzer.Finish();
      round.fuzz_s += Since(t0);
      round.iters += resumed.model_iterations - parsed.workers[0].model_iterations;
    }
    if (error = CheckSameCampaign(result, resumed); !error.empty()) return "resume: " + error;
    return DeliverSuite(*fe, result, /*sequential=*/true, fe->name, round);
  }

  /// The threaded and the isolated engine on the same seed, both writing
  /// periodic checkpoints, then a resume from the threaded engine's
  /// mid-campaign checkpoint.
  void ParallelCampaigns(std::size_t m, Round& round) {
    const std::string& name = w_.models[m];
    std::string error;
    std::unique_ptr<FrontEnd> fe;
    fuzz::ParallelCampaignResult threaded;
    fuzz::SupervisedCampaignResult isolated;
    const fuzz::FuzzerOptions base = Options(DeriveSeed(seed_, m, 0), round);
    const fuzz::FuzzBudget budget = Budget();
    const std::uint64_t sync_every = 1024;
    const fs::path dir = work_ / (name + ".ckpt");
    const std::string threaded_ckpt = (dir / "threaded.ckpt").string();

    Op(round, name + " threaded campaign", [&]() -> std::string {
      fe = TimedLoad(m, round, &error);
      if (fe == nullptr) return error;
      if (Status s = support::EnsureDir(dir.string()); !s.ok()) return s.message();
      fuzz::FuzzerOptions opts = base;
      // One periodic write lands past the middle of the campaign and is the
      // resume point below.
      opts.checkpoint_path = threaded_ckpt;
      opts.checkpoint_every = w_.execs * 3 / 5;
      fuzz::ParallelOptions par;
      par.num_workers = w_.workers;
      par.sync_every = sync_every;
      const Clock::time_point t0 = Clock::now();
      {
        fuzz::ParallelFuzzer engine(fe->program(), fe->spec(), opts, par);
        threaded = engine.Run(budget);
      }
      const double wall = Since(t0);
      round.fuzz_s += wall;
      round.iters += threaded.merged.model_iterations;
      round.spans.Add("threaded.wall_s", wall);
      round.spans.Add("parallel.rounds", static_cast<double>(threaded.rounds));
      round.spans.Add("parallel.imports", static_cast<double>(threaded.imports));
      BookCampaign(threaded.merged, round.spans);
      return DeliverSuite(*fe, threaded.merged, /*sequential=*/false, name + ".threaded", round);
    });
    if (fe == nullptr) return;

    Op(round, name + " isolated campaign", [&]() -> std::string {
      fuzz::FuzzerOptions opts = base;
      opts.checkpoint_path = (dir / "isolated.ckpt").string();
      opts.checkpoint_every = w_.execs / 4;
      fuzz::SupervisorOptions sup;
      sup.num_workers = w_.workers;
      sup.sync_every = sync_every;
      const Clock::time_point t0 = Clock::now();
      {
        fuzz::Supervisor engine(fe->program(), fe->spec(), opts, sup);
        isolated = engine.Run(budget);
      }
      const double wall = Since(t0);
      round.fuzz_s += wall;
      round.iters += isolated.merged.model_iterations;
      round.spans.Add("supervisor.wall_s", wall);
      round.spans.Add("parallel.rounds", static_cast<double>(isolated.rounds));
      round.spans.Add("parallel.imports", static_cast<double>(isolated.imports));
      BookCampaign(isolated.merged, round.spans);
      if (isolated.crashes != 0 || isolated.restarts != 0 || isolated.lanes_retired != 0) {
        return "isolated engine lost a lane (" + std::to_string(isolated.crashes) + " crashes)";
      }
      if (std::string e = CheckSameParallelCampaign(threaded, isolated); !e.empty()) {
        return "threaded vs isolated: " + e;
      }
      return DeliverSuite(*fe, isolated.merged, /*sequential=*/false, name + ".isolated", round);
    });

    Op(round, name + " resume", [&]() -> std::string {
      std::string bytes;
      if (!ReadFile(threaded_ckpt, &bytes)) return "no checkpoint at " + threaded_ckpt;
      fuzz::CampaignCheckpoint parsed;
      if (std::string e = CheckCheckpointRoundTrip(bytes, round.spans, &parsed); !e.empty()) {
        return e;
      }
      const std::uint64_t fp = fuzz::SpecFingerprint(fe->spec(), fe->program());
      if (Status s = fuzz::ValidateCheckpoint(parsed, base,
                                              static_cast<std::uint32_t>(w_.workers), fp);
          !s.ok()) {
        return "checkpoint rejected: " + s.message();
      }
      std::uint64_t done = 0;
      for (const fuzz::FuzzerState& st : parsed.workers) done += st.model_iterations;
      if (done == 0 || parsed.rounds == 0) return "checkpoint is not mid-campaign";
      fuzz::ParallelOptions par;
      par.num_workers = w_.workers;
      par.sync_every = sync_every;
      par.resume = &parsed;
      fuzz::ParallelCampaignResult resumed;
      const Clock::time_point t0 = Clock::now();
      {
        fuzz::ParallelFuzzer engine(fe->program(), fe->spec(), base, par);
        resumed = engine.Run(budget);
      }
      round.fuzz_s += Since(t0);
      round.iters += resumed.merged.model_iterations - done;
      if (std::string e = CheckSameParallelCampaign(threaded, resumed); !e.empty()) {
        return "resumed vs uninterrupted: " + e;
      }
      return "";
    });
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  Workload w_;
  std::vector<std::unique_ptr<FrontEnd>> reference_;  // the set-up's load of each model
  const FrontEnd* subnormal_probe_ = nullptr;
  std::uint64_t seed_;
  std::string models_dir_;
  fs::path work_;
};

// -- Reporting ---------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident memory: this process's high-water mark (VmHWM, which
/// restarts at exec, unlike RUSAGE_SELF's ru_maxrss that keeps the
/// launcher's) or, for the isolated engine, the largest forked worker's.
double PeakRssMb() {
  double self_kb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::stod(line.substr(6));
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max(self_kb, static_cast<double>(children.ru_maxrss)) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer metrics reported in the result object, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"xml.parse_s", "s"},           {"parser.load_s", "s"},
    {"sched.schedule_s", "s"},      {"codegen.lower_s", "s"},
    {"codegen.insns", "count"},     {"codegen.emit_c_s", "s"},
    {"codegen.emit_c_bytes", "bytes"}, {"analysis.analyze_s", "s"},
    {"analysis.slices_s", "s"},     {"analysis.proved_unreachable", "count"},
    {"vm.dispatches", "count"},     {"vm.insns_per_iter", "count"},
    {"vm.replay_iters_per_s", "it/s"}, {"fuzz.mutate_s", "s"},
    {"fuzz.execute_s", "s"},        {"fuzz.coverage_update_s", "s"},
    {"fuzz.execs", "count"},        {"fuzz.useful_ratio", "ratio"},
    {"parallel.rounds", "count"},   {"parallel.imports", "count"},
    {"checkpoint.encode_s", "s"},   {"checkpoint.decode_s", "s"},
    {"checkpoint.bytes", "bytes"},  {"suite.reduce_s", "s"},
    {"suite.minimize_s", "s"},      {"suite.cases_kept", "count"},
    {"suite.tuples_kept", "count"}, {"csv.export_s", "s"},
    {"csv.unreadable_cases", "count"}, {"sim.replay_s", "s"},
    {"traced.total_s", "s"},
    {"traced.iters_per_s", "it/s"},
};

/// Engine-specific layers that only the parallel workload exercises; they
/// are printed as text lines of the traced run, not in the result object.
const std::vector<std::string> kParallelOnly = {"parallel.corpus_sync_s", "parallel.idle_s",
                                                "threaded.wall_s", "supervisor.wall_s"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string models_dir = "models";
  std::string work_dir = ".bench_work";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a->workload = v;
      else if (flag == "--seed") a->seed = std::stoull(v);
      else if (flag == "--seconds") a->seconds = std::stod(v);
      else if (flag == "--trace") a->trace = v == "1";
      else if (flag == "--models") a->models_dir = v;
      else if (flag == "--work") a->work_dir = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  Workload w;
  if (!ParseArgs(argc, argv, &args) || !MakeWorkload(args.workload, &w)) {
    std::fprintf(stderr,
                 "usage: campaign_bench --workload long-seq|many-short|parallel --seed N "
                 "--seconds S --trace 0|1 [--models DIR] [--work DIR]\n");
    return 2;
  }
  const fs::path work = fs::path(args.work_dir) / std::to_string(::getpid());
  std::error_code ec;
  if (fs::create_directories(work, ec); ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", work.c_str(), ec.message().c_str());
    return 1;
  }
  Harness harness(w, args.seed, args.models_dir, work);
  std::string error;
  double cold_setup_s = 0;
  if (!harness.Setup(&cold_setup_s, &error)) {
    std::fprintf(stderr, "error: set-up failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("cold set-up: %.6f s\n", cold_setup_s);

  std::vector<Round> rounds;
  const Clock::time_point start = Clock::now();
  do {
    Round& round = rounds.emplace_back(args.trace, w.models.size());
    const Clock::time_point t0 = Clock::now();
    harness.RunRound(round);
    round.wall_s = Since(t0);
    std::printf("round %zu: %.3f s, %" PRIu64 " iterations in %.3f s of fuzzing, %" PRId64
                " objectives, %" PRIu64 "/%" PRIu64 " operations failed\n",
                rounds.size(), round.wall_s, round.iters, round.fuzz_s, round.objectives,
                round.failed, round.attempted);
  } while (Since(start) < args.seconds);
  fs::remove_all(work, ec);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t known_fault_failed = 0;
  std::uint64_t unreadable_csv = 0;
  std::vector<double> setups;
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<double> objectives;
  for (const Round& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    known_fault_failed += r.known_fault_failed;
    unreadable_csv += r.unreadable_csv;
    for (double pass : r.SetupPasses()) setups.push_back(pass);
    walls.push_back(r.wall_s);
    rates.push_back(r.fuzz_s > 0 ? static_cast<double>(r.iters) / r.fuzz_s : 0);
    objectives.push_back(static_cast<double>(r.objectives));
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {{"setup_s", Median(setups), "s"},
               {"total_s", Median(walls), "s"},
               {"iters_per_s", Median(rates), "it/s"},
               {"objectives_covered", Median(objectives), "count"},
               {"peak_rss_mb", PeakRssMb(), "MB"}};
  } else {
    // Per-round layer values with the derived ratios, then medians over
    // rounds.
    std::map<std::string, std::vector<double>> per_round;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      std::map<std::string, double> v = rounds[i].spans.values();
      const auto ratio = [&](const char* num, const char* den) {
        return v[den] > 0 ? v[num] / v[den] : 0.0;
      };
      v["vm.insns_per_iter"] = ratio("vm.dispatches", "vm.steps");
      v["vm.replay_iters_per_s"] = ratio("vm.replay_iters", "vm.replay_s");
      v["fuzz.useful_ratio"] = ratio("fuzz.useful", "fuzz.execs");
      v["traced.total_s"] = walls[i];
      v["traced.iters_per_s"] = rates[i];
      for (const auto& [key, value] : v) per_round[key].push_back(value);
    }
    const auto median_of = [&](const std::string& key) {
      auto it = per_round.find(key);
      return it == per_round.end() ? 0.0 : Median(it->second);
    };
    for (const auto& [name, unit] : kLayerMetrics) metrics.push_back({name, median_of(name), unit});
    if (w.name == "parallel") {
      for (const std::string& name : kParallelOnly) {
        std::printf("layer %s %.9g s\n", name.c_str(), median_of(name));
      }
    }
  }

  if (known_fault_failed > 0) {
    std::printf("known fault: CsvToTestCase refuses a subnormal double it exported "
                "(%" PRIu64 " failed operations)\n", known_fault_failed);
  }
  if (unreadable_csv > 0) {
    std::printf("known fault: %" PRIu64 " exported test case(s) hold a subnormal double that "
                "CsvToTestCase refuses; replayed from their files' values\n", unreadable_csv);
  }
  for (const Metric& m : metrics) {
    std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  // Every failure other than the known fault is a wrong output.
  const bool correct = failed == known_fault_failed;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i == 0 ? "" : ", ") + std::string("\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace cbench

int main(int argc, char** argv) { return cbench::Main(argc, argv); }
