// cftcg — the command-line tool over the library.
//
//   cftcg info  <model.cmx>                      model statistics
//   cftcg gen   <model.cmx> [-o out.c]           emit instrumented fuzzing code
//   cftcg analyze <model.cmx> [--json FILE]      static interval analysis: objective
//                                                reachability verdicts, lint, inport ranges
//               [--slices]                       per-objective dependence slices +
//                                                slice-refined unreachability verdicts
//               [--lint]                         lint-only output; exit 1 on any
//                                                error-severity finding (CI gate)
//   cftcg fuzz  <model.cmx> [--seconds N] [--seed N] [--out DIR] [--fuzz-only] [-j N]
//               [--analyze] [--focus] [--stats-every N] [--trace out.jsonl] [--metrics out.json]
//                                                run a campaign, export CSV tests
//   cftcg run   <model.cmx> --csv test.csv       replay a CSV test case
//   cftcg trace-summary <trace.jsonl>            summarize a campaign trace
//   cftcg profile <profile.json> [--diff BASE] [--folded FILE]
//                                                render / diff a saved self-profile
//   cftcg explain <trace.jsonl> [--html FILE] [--json FILE] [--csv FILE]
//                                                campaign explorer from a trace:
//                                                first-hit provenance, corpus
//                                                genealogy, residual objectives
//   cftcg export-benchmarks <dir>                write the 8 Table 2 models as .cmx
//
// Wherever a <model.cmx> is expected, a Table 2 benchmark name (AFC,
// SolarPV, ...) also works and loads the built-in model.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/report.hpp"
#include "bench_models/bench_models.hpp"
#include "cftcg/experiment.hpp"
#include "cftcg/pipeline.hpp"
#include "coverage/html_report.hpp"
#include "coverage/provenance.hpp"
#include "coverage/report.hpp"
#include "fuzz/checkpoint.hpp"
#include "fuzz/csv_export.hpp"
#include "fuzz/suite.hpp"
#include "support/atomic_file.hpp"
#include "support/fault_inject.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "parser/model_io.hpp"
#include "support/strings.hpp"

using namespace cftcg;

namespace {

// Cooperative interruption: the first SIGINT/SIGTERM raises this flag; the
// fuzzing engine finishes the in-flight execution (or, parallel, the
// in-flight round), writes a final checkpoint if one is configured, and the
// normal reporting path runs. A second signal hard-exits (the campaign is
// already flagged, so the user is asking for an immediate stop).
std::atomic<bool> g_interrupt{false};

void OnInterrupt(int) {
  if (g_interrupt.exchange(true)) std::_Exit(130);
}

void InstallInterruptHandler() {
  std::signal(SIGINT, OnInterrupt);
  std::signal(SIGTERM, OnInterrupt);
}

int Usage() {
  std::puts(
      "usage:\n"
      "  cftcg info  <model.cmx>\n"
      "  cftcg gen   <model.cmx> [-o out.c]\n"
      "  cftcg analyze <model.cmx> [--json FILE]\n"
      "              static interval analysis: per-objective reachability\n"
      "              verdicts, lint findings, heuristic inport ranges\n"
      "              [--slices]           per-objective dependence slices (influencing\n"
      "                                   inports, supporting cone, independence\n"
      "                                   components) + slice-refined verdicts\n"
      "              [--lint]             lint findings only; exit 1 on any\n"
      "                                   error-severity finding (the model-lint CI gate)\n"
      "  cftcg fuzz  <model.cmx> [--seconds N] [--seed N] [--out DIR] [--fuzz-only]\n"
      "              [-j N | --jobs N]    parallel fuzzing with N workers\n"
      "              [--analyze]          static analysis first: justified residuals,\n"
      "                                   early stop, boundary seeds\n"
      "              [--focus]            focused mutation: field edits target the\n"
      "                                   frontier objective's dependence slice\n"
      "              [--minimize]         reduce + shrink the suite before export\n"
      "              [--stats-every N]    periodic status line + stat events, every N s\n"
      "              [--trace FILE]       write a JSONL campaign event trace\n"
      "              [--metrics FILE]     dump the metrics-registry snapshot as JSON\n"
      "              [--max-execs N]      stop after N executions (deterministic budget)\n"
      "              [--checkpoint FILE]  durable campaign state; written atomically on\n"
      "                                   SIGINT/SIGTERM (and every N executions with\n"
      "                                   --checkpoint-every N)\n"
      "              [--resume]           continue the campaign in --checkpoint FILE;\n"
      "                                   seed/mode/jobs are taken from the checkpoint\n"
      "              [--step-budget N]    per-iteration cap on VM back-jumps; inputs that\n"
      "                                   blow it are quarantined as hangs (0 disables)\n"
      "              [--hangs-dir DIR]    save quarantined hanging inputs here\n"
      "              [--serve PORT]       live HTTP monitor on 127.0.0.1:PORT (0 picks an\n"
      "                                   ephemeral port, echoed and written to\n"
      "                                   monitor.json): /status /metrics /trace.json\n"
      "              [--stall-window N]   flag a worker as stalled after N s without\n"
      "                                   progress (default 10; needs --serve)\n"
      "              [--profile]          timed self-profiling: phase accounting +\n"
      "                                   strobe-sampled hot blocks; writes\n"
      "                                   profile.json and profile.folded\n"
      "              [--profile-strobe N] sample every Nth VM dispatch (default 97)\n"
      "              [--isolate]          crash isolation: fork each worker into its own\n"
      "                                   supervised process; worker death or a hang is\n"
      "                                   quarantined and the lane respawned (same\n"
      "                                   results as threaded -jN for the same seed)\n"
      "              [--crashes-dir DIR]  save inputs in flight at a worker crash here\n"
      "              [--lane-timeout N]   kill + respawn a worker silent for N s\n"
      "                                   (default 30; needs --isolate)\n"
      "              [--max-restarts N]   respawns before a lane is retired (default 3)\n"
      "              [--faults SPEC]      deterministic fault injection into the\n"
      "                                   supervised campaign: comma list of\n"
      "                                   crash|hang|torn|corrupt|slow (kind*N repeats);\n"
      "                                   also via CFTCG_FAULTS env\n"
      "              [--fault-seed N]     fault schedule seed (default: campaign seed)\n"
      "  cftcg run   <model.cmx> --csv test.csv\n"
      "  cftcg cover <model.cmx> --csv-dir DIR [--html report.html]\n"
      "  cftcg trace-summary <trace.jsonl>\n"
      "  cftcg profile <profile.json> [--diff BASE] [--folded FILE]\n"
      "              render a saved campaign self-profile, diff it against a\n"
      "              baseline, or re-emit folded flamegraph stacks (- = stdout)\n"
      "  cftcg explain <trace.jsonl> [--html FILE] [--json FILE] [--csv FILE]\n"
      "              [--profile profile.json]   join a self-profile: hot-block\n"
      "                                         heatmap + phase table in the HTML\n"
      "              [--model model.cmx]        join dependence slices: per-objective\n"
      "                                         influencing-inports panel in the HTML\n"
      "              first-hit provenance explorer (use - for stdout)\n"
      "  cftcg export-benchmarks <dir>\n"
      "(<model.cmx> may also be a Table 2 benchmark name: CPUTask, AFC, ...)");
  return 2;
}

std::string AsciiLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::unique_ptr<CompiledModel> Load(const std::string& path) {
  // A bare benchmark name (case-insensitive: AFC, afc, ...) loads the
  // built-in Table 2 model of that name.
  if (std::ifstream probe(path); !probe) {
    for (const auto& info : bench_models::Roster()) {
      if (AsciiLower(info.name) != AsciiLower(path)) continue;
      auto model = bench_models::Build(info.name);
      if (!model.ok()) {
        std::fprintf(stderr, "error: %s\n", model.message().c_str());
        return nullptr;
      }
      auto built = CompiledModel::FromModel(model.take());
      if (!built.ok()) {
        std::fprintf(stderr, "error: %s\n", built.message().c_str());
        return nullptr;
      }
      return built.take();
    }
  }
  auto cm = CompiledModel::FromFile(path);
  if (!cm.ok()) {
    std::fprintf(stderr, "error: %s\n", cm.message().c_str());
    return nullptr;
  }
  return cm.take();
}

/// Creates `dir` and any missing parents. The path is taken literally (no
/// shell in between), so spaces and metacharacters are just characters.
/// Prints a diagnostic and returns false when the directory cannot be made.
bool MakeDirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!ec && std::filesystem::is_directory(dir, ec)) return true;
  std::fprintf(stderr, "error: cannot create directory %s: %s\n", dir.c_str(),
               ec ? ec.message().c_str() : "a file of that name exists");
  return false;
}

int CmdInfo(const std::string& path) {
  auto cm = Load(path);
  if (!cm) return 1;
  std::printf("model        : %s\n", cm->model().name().c_str());
  std::printf("blocks       : %zu (including sub-systems)\n", cm->NumBlocks());
  std::printf("decisions    : %zu\n", cm->spec().decisions().size());
  std::printf("conditions   : %zu\n", cm->spec().conditions().size());
  std::printf("branch space : %d outcome slots, %d fuzz slots\n", cm->NumBranches(),
              cm->spec().FuzzBranchCount());
  std::printf("inports      : ");
  for (auto t : cm->instrumented().input_types) std::printf("%s ", std::string(ir::DTypeName(t)).c_str());
  std::printf("(tuple = %zu bytes)\n", cm->instrumented().TupleSize());
  std::puts("decision points:");
  for (const auto& d : cm->spec().decisions()) {
    std::printf("  %-40s %d outcomes, %zu conditions\n", d.name.c_str(), d.num_outcomes,
                d.conditions.size());
  }
  return 0;
}

int CmdGen(const std::string& path, const std::string& out_path) {
  auto cm = Load(path);
  if (!cm) return 1;
  auto code = cm->EmitFuzzingCode();
  if (!code.ok()) {
    std::fprintf(stderr, "error: %s\n", code.message().c_str());
    return 1;
  }
  if (out_path.empty()) {
    std::fputs(code.value().c_str(), stdout);
  } else {
    if (Status s = support::WriteFileAtomic(out_path, code.value()); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.message().c_str());
      return 1;
    }
    std::printf("wrote %zu bytes of instrumented fuzzing code to %s\n", code.value().size(),
                out_path.c_str());
  }
  return 0;
}

/// Converts the analyzer's heuristic inport intervals into boundary-seed
/// ranges: only fully bounded intervals activate (an unbounded side means
/// the analyzer learned nothing useful about that field's thresholds).
std::vector<fuzz::FieldRange> BoundarySeedRanges(const std::vector<sldv::Interval>& ranges) {
  std::vector<fuzz::FieldRange> out;
  for (const auto& r : ranges) {
    fuzz::FieldRange fr;
    if (!r.empty() && std::fabs(r.lo()) < sldv::Interval::kInf &&
        std::fabs(r.hi()) < sldv::Interval::kInf) {
      fr.lo = r.lo();
      fr.hi = r.hi();
      fr.active = true;
    }
    out.push_back(fr);
  }
  return out;
}

struct TelemetryFlags {
  double stats_every = 0;   // 0: no periodic status line
  std::string trace_path;   // empty: no JSONL trace
  std::string metrics_path; // empty: no metrics dump
};

struct ServeFlags {
  int port = -1;              // < 0: no monitor; 0: ephemeral
  double stall_window = 10.0; // seconds without progress before a worker is flagged
};

struct ProfileFlags {
  bool enabled = false;             // --profile: timed mode + profile.json/.folded
  std::uint64_t strobe_period = 97; // sample every Nth VM dispatch
};

struct DurabilityFlags {
  std::string checkpoint_path;          // empty: no checkpointing
  std::uint64_t checkpoint_every = 0;   // 0: checkpoint on interrupt only
  bool resume = false;                  // continue from checkpoint_path
  std::uint64_t max_execs = UINT64_MAX; // execution-bounded budget
  std::uint64_t step_budget = fuzz::FuzzerOptions{}.step_budget;
  std::string hangs_dir;                // where quarantined inputs go
};

struct IsolationFlags {
  bool isolate = false;        // --isolate: fork workers, supervise, respawn
  std::string faults;          // --faults crash,hang,...: deterministic injection
  std::uint64_t fault_seed = 0;
  bool fault_seed_set = false; // default: derived from the campaign seed
  double lane_timeout = 30.0;  // --lane-timeout: reply deadline before a kill
  int max_restarts = 3;        // --max-restarts: respawns before retirement
  std::string crashes_dir;     // --crashes-dir: quarantined crashing inputs
};

/// A checkpoint that cannot even be parsed or whose tables have impossible
/// shapes exits with this code — distinct from campaign/validation failures
/// (1) and usage errors (2), so wrappers can tell "checkpoint file is
/// damaged" from "checkpoint belongs to a different campaign".
constexpr int kExitBadCheckpoint = 4;

int CmdFuzz(const std::string& path, double seconds, std::uint64_t seed, const std::string& outdir,
            bool fuzz_only, bool minimize, bool analyze, bool focus, int jobs,
            const TelemetryFlags& tf, DurabilityFlags df, const ServeFlags& sf,
            const ProfileFlags& pf, const IsolationFlags& isf) {
  // CLI-side phases (model load+lowering, static analysis, suite export) are
  // timed here and merged into the campaign profile the engine accumulates.
  obs::PhaseProfile cli_phases;
  obs::Stopwatch phase_watch;
  auto cm = Load(path);
  if (!cm) return 1;
  cli_phases.Add(obs::ProfilePhase::kLoad, phase_watch.Elapsed());
  // Made up front: a campaign must not run only to lose its suite.
  if (!outdir.empty() && !MakeDirs(outdir)) return 1;

  // --resume: the checkpoint carries the campaign configuration (seed, mode,
  // worker count, sync cadence, step budget); the command line only needs to
  // name the same model and the checkpoint file. Only the model's coverage
  // universe is validated — resuming against a different model is refused.
  fuzz::CampaignCheckpoint ckpt;
  if (df.resume) {
    if (df.checkpoint_path.empty()) {
      std::fprintf(stderr, "error: --resume requires --checkpoint FILE\n");
      return 2;
    }
    auto loaded = fuzz::ReadCheckpointFile(df.checkpoint_path);
    if (!loaded.ok()) {
      // Unreadable / truncated / bit-flipped checkpoint: a structured
      // diagnostic and a distinct exit code, never a crash. The campaign
      // can be restarted from scratch; the damaged file is left for triage.
      std::fprintf(stderr, "error: %s\n", loaded.message().c_str());
      return kExitBadCheckpoint;
    }
    ckpt = loaded.take();
    if (ckpt.spec_fingerprint == fuzz::SpecFingerprint(cm->spec(), cm->instrumented())) {
      // Shape validation against this model's coverage universe: a blob that
      // parsed (and names this model) but carries impossible table sizes is
      // damage, not mismatch. Checkpoints for a *different* model skip this
      // and fail the identity validation below with the ordinary exit code.
      const coverage::CoverageSink probe(cm->spec());
      if (Status s = fuzz::ValidateCheckpointShape(ckpt, probe.total().size(),
                                                   probe.evals().size());
          !s.ok()) {
        std::fprintf(stderr, "error: %s: %s\n", df.checkpoint_path.c_str(),
                     s.message().c_str());
        return kExitBadCheckpoint;
      }
    }
    seed = ckpt.seed;
    fuzz_only = !ckpt.model_oriented;
    analyze = analyze || ckpt.analyzed;
    jobs = static_cast<int>(ckpt.num_workers);
    df.step_budget = ckpt.step_budget;
    std::uint64_t done = 0;
    for (const auto& w : ckpt.workers) done += w.executions;
    std::printf("resuming: seed %llu, %u worker(s), %llu executions done, %.1fs elapsed\n",
                static_cast<unsigned long long>(ckpt.seed), ckpt.num_workers,
                static_cast<unsigned long long>(done), ckpt.elapsed_s);
  }
  InstallInterruptHandler();

  obs::CampaignTelemetry telemetry;
  std::unique_ptr<obs::TraceWriter> trace;
  if (!tf.trace_path.empty()) {
    auto opened = obs::TraceWriter::Open(tf.trace_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "error: %s\n", opened.message().c_str());
      return 1;
    }
    trace = opened.take();
    telemetry.trace = trace.get();
  }
  if (trace != nullptr || tf.stats_every > 0 || !tf.metrics_path.empty()) {
    telemetry.registry = &obs::Registry::Global();
  }
  if (tf.stats_every > 0) {
    telemetry.stats_every_s = tf.stats_every;
    telemetry.status_stream = stderr;
  } else if (trace != nullptr) {
    // A trace without an explicit cadence still gets stat heartbeats (for
    // trace-summary's exec/s percentiles), just no stderr status line.
    telemetry.stats_every_s = 1.0;
  }
  // --serve: live HTTP monitor. Implies a metrics registry (for /metrics)
  // and a heartbeat cadence (the /status aggregates refresh on heartbeats);
  // the status board must begin before the server or any worker starts.
  obs::CampaignStatusBoard status_board;
  obs::ProfilePublisher profile_pub;
  std::unique_ptr<obs::MonitorServer> monitor;
  if (sf.port >= 0) {
    telemetry.registry = &obs::Registry::Global();
    if (telemetry.stats_every_s <= 0) telemetry.stats_every_s = 1.0;
    obs::CampaignInfo info;
    info.model = cm->model().name();
    info.mode = fuzz_only ? "fuzz_only" : "cftcg";
    info.seed = seed;
    info.workers = std::max(jobs, 1);
    info.budget_s = seconds;
    if (df.resume) info.time_base_s = ckpt.elapsed_s;
    status_board.BeginCampaign(info);
    obs::MonitorOptions mopts;
    mopts.port = static_cast<std::uint16_t>(sf.port);
    mopts.stall_window_s = sf.stall_window;
    auto started = obs::MonitorServer::Start(&status_board, telemetry.registry, mopts);
    if (!started.ok()) {
      std::fprintf(stderr, "error: %s\n", started.message().c_str());
      return 1;
    }
    monitor = started.take();
    monitor->set_profile_publisher(&profile_pub);
    std::printf("monitor: serving http://127.0.0.1:%u/ (/status /metrics /trace.json /profile)\n",
                static_cast<unsigned>(monitor->port()));
    if (Status s = support::WriteFileAtomic("monitor.json",
                                            obs::MonitorArtifactJson(monitor->port()));
        !s.ok()) {
      std::fprintf(stderr, "warning: monitor.json not written: %s\n", s.message().c_str());
    }
  }
  obs::CampaignTelemetry* use = telemetry.active() ? &telemetry : nullptr;

  // Provenance rides along whenever the campaign is observed at all: the
  // trace gets objective/corpus/residual events and the metrics snapshot a
  // "provenance" section. Untraced runs keep the bare hot path.
  std::unique_ptr<coverage::ProvenanceMap> provenance;
  std::unique_ptr<coverage::MarginRecorder> margins;
  if (use != nullptr) {
    provenance = std::make_unique<coverage::ProvenanceMap>(cm->spec());
    margins = std::make_unique<coverage::MarginRecorder>();
  }

  // --analyze: run the static analyzer up front. Its proved-unreachable
  // verdicts shrink the stopping frontier (the campaign ends once every
  // *reachable* slot is covered) and label justified residuals; its
  // heuristic inport ranges become boundary corpus seeds.
  const coverage::JustificationSet* justifications = nullptr;
  std::vector<fuzz::FieldRange> boundary_ranges;
  if (analyze) {
    phase_watch.Restart();
    const analysis::ModelAnalysis& ma = cm->analysis();
    cli_phases.Add(obs::ProfilePhase::kAnalyze, phase_watch.Elapsed());
    justifications = &ma.justifications;
    boundary_ranges = BoundarySeedRanges(ma.inport_ranges);
    std::printf("analysis: %s in %d iteration(s); %zu objective(s) justified unreachable, "
                "%zu lint finding(s)\n",
                ma.converged ? "converged" : "did not converge", ma.iterations,
                ma.justifications.NumExcluded(), ma.lints.size());
    if (telemetry.registry != nullptr) {
      telemetry.registry->GetGauge("analysis.iterations").Set(ma.iterations);
      telemetry.registry->GetGauge("analysis.justified")
          .Set(static_cast<double>(ma.justifications.NumExcluded()));
      telemetry.registry->GetGauge("analysis.lints").Set(static_cast<double>(ma.lints.size()));
    }
    if (telemetry.trace != nullptr) {
      obs::TraceEvent ev("analysis");
      ev.U64("converged", ma.converged ? 1 : 0)
          .I64("iterations", ma.iterations)
          .U64("justified", ma.justifications.NumExcluded())
          .U64("lints", ma.lints.size());
      telemetry.trace->Emit(ev);
    }
  }

  // --focus: project the dependence slices into the focus plan the mutation
  // loop consumes. Campaigns without the flag never touch the slicer and
  // stay bit-identical to pre-focus builds.
  fuzz::FocusPlan focus_plan;
  if (focus && !fuzz_only) {
    phase_watch.Restart();
    focus_plan = cm->BuildFocusPlan();
    cli_phases.Add(obs::ProfilePhase::kAnalyze, phase_watch.Elapsed());
    std::size_t sliced = 0;
    for (const auto& fields : focus_plan.slot_fields) sliced += fields.empty() ? 0 : 1;
    std::printf("focus: %zu / %zu objectives sliced, %d independence component(s)\n", sliced,
                focus_plan.slot_fields.size(), focus_plan.num_components);
  } else if (focus && fuzz_only) {
    std::fprintf(stderr, "warning: --focus needs model-oriented mutation; ignored with "
                         "--fuzz-only\n");
    focus = false;
  }

  fuzz::FuzzBudget budget;
  budget.wall_seconds = seconds;
  budget.max_executions = df.max_execs;

  fuzz::FuzzerOptions options;
  options.seed = seed;
  options.model_oriented = !fuzz_only;
  options.telemetry = use;
  options.status_board = monitor != nullptr ? &status_board : nullptr;
  options.provenance = provenance.get();
  options.justifications = justifications;
  options.focus = focus ? &focus_plan : nullptr;
  options.boundary_seed_ranges = boundary_ranges;
  options.checkpoint_path = df.checkpoint_path;
  options.checkpoint_every = df.checkpoint_every;
  options.interrupt = &g_interrupt;
  options.step_budget = df.step_budget;
  options.hangs_dir = df.hangs_dir;
  options.profile_timing = pf.enabled;
  options.profile_strobe_period = pf.strobe_period;
  // The /profile endpoint serves live snapshots whenever the monitor is up,
  // even in count-only (no --profile) mode: block dispatch shares are always
  // collected, only the timed planes need the opt-in.
  options.profile_publisher = monitor != nullptr ? &profile_pub : nullptr;
  if (df.resume) {
    options.use_idc_energy = ckpt.use_idc_energy;
    options.max_tuples = static_cast<std::size_t>(ckpt.max_tuples);
    const std::uint64_t fp = fuzz::SpecFingerprint(cm->spec(), cm->instrumented());
    if (Status v = fuzz::ValidateCheckpoint(ckpt, options, static_cast<std::uint32_t>(jobs), fp,
                                            &cm->instrumented(),
                                            fuzz_only ? &cm->fuzz_only() : nullptr);
        !v.ok()) {
      std::fprintf(stderr, "error: %s\n", v.message().c_str());
      return 1;
    }
  }

  fuzz::CampaignResult result;
  if (isf.isolate) {
    // Crash-isolated engine: every worker in its own process, supervised
    // with quarantine + respawn. No sequential delegation even at -j1 — the
    // isolation boundary always holds.
    fuzz::SupervisorOptions sup;
    sup.num_workers = std::max(jobs, 1);
    if (df.resume) {
      sup.sync_every = ckpt.sync_every;
      sup.resume = &ckpt;
    }
    sup.lane_timeout_s = isf.lane_timeout;
    sup.max_restarts = isf.max_restarts;
    sup.crashes_dir = isf.crashes_dir;
    // Deterministic fault injection: --faults (seeded by --fault-seed or the
    // campaign seed), falling back to CFTCG_FAULTS/CFTCG_FAULT_SEED so CI
    // drives it without touching the command line under test.
    const std::uint64_t horizon =
        df.max_execs != UINT64_MAX
            ? df.max_execs / static_cast<std::uint64_t>(sup.num_workers)
            : 20000;
    const std::uint64_t fault_seed = isf.fault_seed_set ? isf.fault_seed : seed;
    auto injected = isf.faults.empty()
                        ? support::FaultInjector::FromEnv(fault_seed, sup.num_workers, horizon)
                        : support::FaultInjector::FromSpec(isf.faults, fault_seed,
                                                           sup.num_workers, horizon);
    if (!injected.ok()) {
      std::fprintf(stderr, "error: %s\n", injected.message().c_str());
      return 2;
    }
    support::FaultInjector injector = injected.take();
    if (injector.active()) {
      sup.faults = &injector;
      std::printf("fault injection: %s (seed %llu)\n", injector.Describe().c_str(),
                  static_cast<unsigned long long>(fault_seed));
    }
    auto sresult = cm->FuzzSupervised(options, budget, sup);
    result = std::move(sresult.merged);
    std::printf("parallel: %d workers, %llu rounds, %llu corpus imports\n", sup.num_workers,
                static_cast<unsigned long long>(sresult.rounds),
                static_cast<unsigned long long>(sresult.imports));
    std::printf("supervision: %llu crash(es) (%llu hang kill(s)), %llu restart(s), "
                "%llu lane(s) retired%s%s\n",
                static_cast<unsigned long long>(sresult.crashes),
                static_cast<unsigned long long>(sresult.hang_kills),
                static_cast<unsigned long long>(sresult.restarts),
                static_cast<unsigned long long>(sresult.lanes_retired),
                sresult.crashes > 0 && !isf.crashes_dir.empty() ? ", inputs quarantined to "
                                                                : "",
                sresult.crashes > 0 ? isf.crashes_dir.c_str() : "");
  } else if (jobs > 1) {
    // Parallel engine: the driver aggregates heartbeats and merges worker
    // state; margin recording is sequential-only and stays off.
    fuzz::ParallelOptions par;
    par.num_workers = jobs;
    if (df.resume) {
      par.sync_every = ckpt.sync_every;
      par.resume = &ckpt;
    }
    auto presult = cm->FuzzParallel(options, budget, par);
    result = std::move(presult.merged);
    std::printf("parallel: %d workers, %llu rounds, %llu corpus imports\n", jobs,
                static_cast<unsigned long long>(presult.rounds),
                static_cast<unsigned long long>(presult.imports));
  } else {
    options.margins = margins.get();
    if (df.resume) options.resume = &ckpt.workers[0];
    obs::ScopedTimer span(fuzz_only ? "tool.FuzzOnly" : "tool.CFTCG");
    result = cm->Fuzz(options, budget);
  }
  // The monitor keeps serving the final numbers until the process exits;
  // ending the campaign freezes elapsed_s and logs the whole-campaign span.
  if (monitor != nullptr) status_board.EndCampaign();
  std::printf("%s: %llu inputs, %llu model iterations (+%llu measure), %zu test cases in %.1fs\n",
              fuzz_only ? "fuzz-only" : "cftcg",
              static_cast<unsigned long long>(result.executions),
              static_cast<unsigned long long>(result.model_iterations),
              static_cast<unsigned long long>(result.measure_iterations),
              result.test_cases.size(), result.elapsed_s);
  if (result.hangs > 0) {
    std::printf("hangs: %llu input(s) blew the step budget and were quarantined%s%s\n",
                static_cast<unsigned long long>(result.hangs),
                df.hangs_dir.empty() ? "" : " to ", df.hangs_dir.c_str());
  }
  std::printf("coverage: %s\n", coverage::FormatReport(result.report).c_str());
  // Determinism fingerprints of the final campaign state: an interrupted-
  // and-resumed campaign must print the same line as an uninterrupted one
  // (the interrupt/resume smoke test compares them verbatim).
  std::printf("state: corpus=%016llx coverage=%016llx provenance=%016llx\n",
              static_cast<unsigned long long>(result.corpus_fingerprint),
              static_cast<unsigned long long>(result.coverage_fingerprint),
              static_cast<unsigned long long>(
                  provenance != nullptr ? fuzz::ProvenanceFingerprint(*provenance) : 0));

  if (focus && !result.focus_stats.empty()) {
    std::uint64_t focused = 0;
    std::uint64_t credited = 0;
    for (std::uint64_t v : result.focus_stats.executions) focused += v;
    for (std::uint64_t v : result.focus_stats.credited) credited += v;
    std::printf("focus: %llu focused execution(s) across %zu component(s), %llu found new "
                "coverage\n",
                static_cast<unsigned long long>(focused), result.focus_stats.executions.size(),
                static_cast<unsigned long long>(credited));
  }

  std::vector<fuzz::TestCase> suite = std::move(result.test_cases);
  if (minimize && !suite.empty()) {
    vm::Machine machine(cm->instrumented());
    const auto reduced = fuzz::ReduceSuite(machine, cm->spec(), suite);
    std::vector<fuzz::TestCase> kept;
    std::size_t before_bytes = 0;
    std::size_t after_bytes = 0;
    for (const auto& tc : suite) before_bytes += tc.data.size();
    for (std::size_t idx : reduced.kept) {
      fuzz::TestCase tc = suite[idx];
      const auto need = fuzz::CoverageOf(machine, cm->spec(), tc.data);
      tc.data = fuzz::MinimizeTestCase(machine, cm->spec(), tc.data, need);
      after_bytes += tc.data.size();
      kept.push_back(std::move(tc));
    }
    std::printf("minimized: %zu -> %zu cases, %zu -> %zu bytes (coverage preserved)\n",
                suite.size(), kept.size(), before_bytes, after_bytes);
    suite = std::move(kept);
  }

  phase_watch.Restart();
  if (!outdir.empty()) {
    fuzz::TupleLayout layout(cm->instrumented().input_types);
    std::vector<std::string> names;
    for (ir::BlockId id : cm->model().Inports()) names.push_back(cm->model().block(id).name());
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const std::string file = StrFormat("%s/test_%04zu.csv", outdir.c_str(), i);
      if (Status s = support::WriteFileAtomic(file, fuzz::TestCaseToCsv(layout, names,
                                                                        suite[i].data));
          !s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.message().c_str());
        return 1;
      }
    }
    std::printf("wrote %zu CSV test cases to %s/\n", suite.size(), outdir.c_str());
  }
  cli_phases.Add(obs::ProfilePhase::kReport, phase_watch.Elapsed());

  // --profile: fold the campaign's VM counters + phase laps (engine planes
  // merged with the CLI-side load/analyze/export laps) into the profile.json
  // and profile.folded artifacts, next to the CSV suite when --out is given.
  if (pf.enabled) {
    obs::PhaseProfile phases = result.phase_profile;
    phases.MergeFrom(cli_phases);
    obs::CampaignProfile prof =
        obs::BuildCampaignProfile(cm->instrumented(), result.exec_profile, phases);
    prof.model = cm->model().name();
    prof.mode = fuzz_only ? "fuzz_only" : "cftcg";
    prof.seed = seed;
    prof.workers = std::max(jobs, 1);
    prof.elapsed_s = result.elapsed_s;
    const std::string prefix = outdir.empty() ? std::string() : outdir + "/";
    const std::string profile_json = prefix + "profile.json";
    const std::string profile_folded = prefix + "profile.folded";
    if (Status s = support::WriteFileAtomic(profile_json, prof.ToJson() + "\n"); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.message().c_str());
      return 1;
    }
    if (Status s = support::WriteFileAtomic(profile_folded, prof.ToFolded()); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.message().c_str());
      return 1;
    }
    std::printf("profile: %llu dispatches over %llu VM steps, %llu strobe samples\n",
                static_cast<unsigned long long>(prof.vm_dispatches),
                static_cast<unsigned long long>(prof.vm_steps),
                static_cast<unsigned long long>(prof.samples));
    if (!prof.blocks.empty()) {
      std::printf("profile: hottest block %s (%.1f%% of dispatches)\n",
                  prof.blocks[0].name.c_str(), prof.blocks[0].dispatch_pct);
    }
    std::printf("profile: wrote %s and %s (render with: cftcg profile %s)\n",
                profile_json.c_str(), profile_folded.c_str(), profile_json.c_str());
  }

  if (trace != nullptr) {
    trace->Flush();
    std::printf("trace: %llu events written to %s\n",
                static_cast<unsigned long long>(trace->events_written()),
                tf.trace_path.c_str());
  }
  if (!tf.metrics_path.empty()) {
    std::string json = obs::Registry::Global().Snapshot().ToJson();
    // Splice the first-hit provenance snapshot into the metrics document so
    // one file carries both ("cftcg explain" can join either source).
    if (provenance != nullptr && !json.empty() && json.back() == '}') {
      json.pop_back();
      json += ",\"provenance\":" + provenance->ToJson() + "}";
    }
    json += "\n";
    if (Status s = support::WriteFileAtomic(tf.metrics_path, json); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.message().c_str());
      return 1;
    }
    std::printf("metrics snapshot written to %s\n", tf.metrics_path.c_str());
  }
  if (provenance != nullptr) {
    std::printf("provenance: %zu / %zu objectives first-hit attributed\n",
                provenance->num_covered(), provenance->num_objectives());
  }
  if (result.interrupted) {
    // Conventional 128+SIGINT exit code; artifacts above were still flushed
    // so the partial campaign is fully inspectable.
    if (df.checkpoint_path.empty()) {
      std::fprintf(stderr, "interrupted (no --checkpoint configured; progress not saved)\n");
    } else {
      std::fprintf(stderr, "interrupted: campaign state saved to %s — continue with:\n"
                           "  cftcg fuzz %s --checkpoint %s --resume\n",
                   df.checkpoint_path.c_str(), path.c_str(), df.checkpoint_path.c_str());
    }
    return 130;
  }
  return 0;
}

/// Copies a live histogram into the snapshot form so Quantile() applies.
obs::HistogramSnapshot SnapshotOf(const obs::Histogram& h, std::string name) {
  obs::HistogramSnapshot snap;
  snap.name = std::move(name);
  snap.count = h.count();
  snap.sum = h.sum();
  snap.min = h.min();
  snap.max = h.max();
  snap.bounds = h.bounds();
  snap.bucket_counts = h.bucket_counts();
  return snap;
}

/// Replays a campaign trace and reports throughput and time-to-coverage.
/// Malformed lines (a truncated tail from a killed campaign, interleaved
/// stderr garbage) are skipped and counted rather than aborting, so a
/// partial trace still summarizes; a fully valid trace reports as such.
int CmdTraceSummary(const std::string& trace_path) {
  std::ifstream in(trace_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", trace_path.c_str());
    return 1;
  }
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  // Self-profiler heartbeat snapshots (`cftcg fuzz --profile --trace`):
  // summarized as first->last deltas, the in-trace view of profile.json.
  struct ProfilePoint {
    double time_s = 0;
    double steps = 0, dispatches = 0, samples = 0;
    double execute_s = 0, mutate_s = 0, coverage_s = 0;
    std::string hot_block;
    double hot_pct = 0;
  };
  std::map<std::string, int> kinds;
  std::vector<double> stat_exec_per_s;
  std::vector<std::pair<double, double>> coverage_points;  // (t, outcomes_covered)
  std::vector<std::pair<std::string, double>> phases;      // (name, seconds)
  std::vector<ProfilePoint> profile_points;
  double stop_elapsed = 0;
  double stop_exec = 0;
  double stop_decision = -1, stop_condition = -1, stop_mcdc = -1;
  std::string start_mode;
  const obs::JsonlStats stats = obs::ForEachJsonl(text, [&](const obs::JsonValue& ev) {
    const std::string kind = ev.StringOr("ev", "?");
    ++kinds[kind];
    if (kind == "start") {
      start_mode = ev.StringOr("mode", "?");
    } else if (kind == "stat") {
      stat_exec_per_s.push_back(ev.NumberOr("exec_per_s", 0));
    } else if (kind == "new" || kind == "frontier") {
      coverage_points.emplace_back(ev.NumberOr("time_s", 0),
                                   ev.NumberOr("outcomes_covered", 0));
    } else if (kind == "stop") {
      stop_elapsed = ev.NumberOr("elapsed_s", 0);
      stop_exec = ev.NumberOr("exec", 0);
      stop_decision = ev.NumberOr("decision_pct", -1);
      stop_condition = ev.NumberOr("condition_pct", -1);
      stop_mcdc = ev.NumberOr("mcdc_pct", -1);
    } else if (kind == "phase") {
      phases.emplace_back(ev.StringOr("name", "?"), ev.NumberOr("seconds", 0));
    } else if (kind == "profile") {
      ProfilePoint p;
      p.time_s = ev.NumberOr("time_s", 0);
      p.steps = ev.NumberOr("steps", 0);
      p.dispatches = ev.NumberOr("dispatches", 0);
      p.samples = ev.NumberOr("samples", 0);
      p.execute_s = ev.NumberOr("execute_s", 0);
      p.mutate_s = ev.NumberOr("mutate_s", 0);
      p.coverage_s = ev.NumberOr("coverage_s", 0);
      p.hot_block = ev.StringOr("hot_block", "");
      p.hot_pct = ev.NumberOr("hot_pct", 0);
      profile_points.push_back(std::move(p));
    }
  });
  if (stats.lines == 0) {
    std::fprintf(stderr, "error: %s is empty\n", trace_path.c_str());
    return 1;
  }
  if (stats.parsed == 0) {
    std::fprintf(stderr, "error: %s: no valid JSONL among %zu line(s)\n", trace_path.c_str(),
                 stats.lines);
    return 1;
  }

  if (stats.skipped == 0) {
    std::printf("trace %s: %zu lines, all valid JSON\n", trace_path.c_str(), stats.lines);
  } else {
    std::printf("trace %s: %zu lines, %zu parsed, %zu malformed line(s) skipped\n",
                trace_path.c_str(), stats.lines, stats.parsed, stats.skipped);
  }
  std::printf("events:");
  for (const auto& [kind, count] : kinds) std::printf(" %s=%d", kind.c_str(), count);
  std::printf("\n");
  if (!start_mode.empty()) std::printf("campaign mode: %s\n", start_mode.c_str());

  if (stop_elapsed > 0 && stop_exec > 0) {
    std::printf("overall: %.0f executions in %.2fs = %.0f exec/s\n", stop_exec, stop_elapsed,
                stop_exec / stop_elapsed);
  }
  if (stop_decision >= 0) {
    std::printf("final coverage: decision %.1f%% condition %.1f%% MC/DC %.1f%%\n", stop_decision,
                stop_condition, stop_mcdc);
  }

  if (!stat_exec_per_s.empty()) {
    std::sort(stat_exec_per_s.begin(), stat_exec_per_s.end());
    auto pct = [&](double p) {
      const double idx = p * static_cast<double>(stat_exec_per_s.size() - 1);
      return stat_exec_per_s[static_cast<std::size_t>(idx + 0.5)];
    };
    std::printf("exec/s over %zu heartbeats: p10=%.0f median=%.0f p90=%.0f max=%.0f\n",
                stat_exec_per_s.size(), pct(0.10), pct(0.50), pct(0.90),
                stat_exec_per_s.back());
    // Window-mean execution duration per heartbeat, estimated through the
    // same histogram estimator the live monitor uses, so the two views of a
    // campaign quote comparable p50/p95/p99 numbers.
    obs::Histogram exec_hist(obs::ExecDurationBucketBounds());
    for (const double eps : stat_exec_per_s) {
      if (eps > 0) exec_hist.Record(1.0 / eps);
    }
    if (exec_hist.count() > 0) {
      const obs::HistogramSnapshot snap = SnapshotOf(exec_hist, "exec_seconds");
      std::printf("exec duration (window means): p50=%.1fus p95=%.1fus p99=%.1fus\n",
                  snap.Quantile(0.50) * 1e6, snap.Quantile(0.95) * 1e6,
                  snap.Quantile(0.99) * 1e6);
    }
  }

  if (!coverage_points.empty()) {
    double final_cov = 0;
    for (const auto& [t, cov] : coverage_points) final_cov = std::max(final_cov, cov);
    if (final_cov > 0) {
      std::printf("time to coverage (of %.0f outcomes reached):\n", final_cov);
      for (const double frac : {0.25, 0.50, 0.75, 0.90, 1.0}) {
        const double target = std::ceil(final_cov * frac);
        for (const auto& [t, cov] : coverage_points) {
          if (cov >= target) {
            std::printf("  %3.0f%% (%3.0f outcomes) at t=%.3fs\n", frac * 100, target, t);
            break;
          }
        }
      }
    }
  }

  if (!phases.empty()) {
    std::printf("phases:\n");
    for (const auto& [name, seconds] : phases) {
      std::printf("  %-20s %.4fs\n", name.c_str(), seconds);
    }
    if (phases.size() >= 2) {
      obs::Histogram phase_hist(obs::DurationBucketBounds());
      for (const auto& [name, seconds] : phases) phase_hist.Record(seconds);
      const obs::HistogramSnapshot snap = SnapshotOf(phase_hist, "phase_seconds");
      std::printf("  phase duration quantiles: p50=%.4fs p95=%.4fs p99=%.4fs\n",
                  snap.Quantile(0.50), snap.Quantile(0.95), snap.Quantile(0.99));
    }
  }

  if (!profile_points.empty()) {
    const ProfilePoint& last = profile_points.back();
    if (profile_points.size() >= 2) {
      const ProfilePoint& first = profile_points.front();
      const double dt = last.time_s - first.time_s;
      std::printf("self-profile: %zu snapshots, first->last deltas over %.2fs:\n",
                  profile_points.size(), dt);
      std::printf("  VM steps      +%.0f (%.0f iter/s), dispatches +%.0f, samples +%.0f\n",
                  last.steps - first.steps,
                  dt > 0 ? (last.steps - first.steps) / dt : 0.0,
                  last.dispatches - first.dispatches, last.samples - first.samples);
      std::printf("  phase time    execute +%.3fs, mutate +%.3fs, coverage-update +%.3fs\n",
                  last.execute_s - first.execute_s, last.mutate_s - first.mutate_s,
                  last.coverage_s - first.coverage_s);
    } else {
      std::printf("self-profile: 1 snapshot at t=%.2fs: %.0f VM steps, %.0f dispatches\n",
                  last.time_s, last.steps, last.dispatches);
    }
    if (!last.hot_block.empty()) {
      std::printf("  hot block     %s (%.1f%% of dispatches)\n", last.hot_block.c_str(),
                  last.hot_pct);
    }
  }
  return 0;
}

/// Writes `content` to `path` ("-" = stdout), echoing where it went.
bool WriteArtifact(const std::string& path, const std::string& content, const char* what) {
  if (path == "-") {
    std::fputs(content.c_str(), stdout);
    return true;
  }
  if (Status s = support::WriteFileAtomic(path, content); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.message().c_str());
    return false;
  }
  std::printf("%s written to %s\n", what, path.c_str());
  return true;
}

/// Reads and parses a profile.json artifact written by `cftcg fuzz --profile`.
Result<obs::CampaignProfile> LoadProfile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::Error("cannot open " + path);
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  auto parsed = obs::ParseCampaignProfile(text);
  if (!parsed.ok()) return Status::Error(path + ": " + parsed.message());
  return parsed;
}

/// `cftcg profile`: offline view over saved self-profiles. Default renders
/// the terminal report; --diff BASE renders the base -> current regression
/// triage deltas; --folded FILE re-emits the flamegraph folded stacks.
int CmdProfile(const std::string& path, const std::string& diff_base,
               const std::string& folded_path) {
  auto current = LoadProfile(path);
  if (!current.ok()) {
    std::fprintf(stderr, "error: %s\n", current.message().c_str());
    return 1;
  }
  if (!folded_path.empty()) {
    return WriteArtifact(folded_path, current.value().ToFolded(), "folded stacks") ? 0 : 1;
  }
  if (!diff_base.empty()) {
    auto base = LoadProfile(diff_base);
    if (!base.ok()) {
      std::fprintf(stderr, "error: %s\n", base.message().c_str());
      return 1;
    }
    std::fputs(obs::RenderProfileDiff(base.value(), current.value()).c_str(), stdout);
    return 0;
  }
  std::fputs(current.value().RenderText().c_str(), stdout);
  return 0;
}

/// `cftcg analyze`: runs the static analyzer alone and renders its report —
/// per-objective reachability verdicts with reasons, lint findings, and the
/// heuristic inport ranges. `--json FILE` ("-" = stdout) emits the
/// machine-readable document instead of the text rendering. `--slices`
/// additionally computes the per-objective dependence slices and reruns the
/// fixpoint per independence component for sharper unreachability verdicts.
/// `--lint` renders the lint findings alone and exits 1 on any
/// error-severity finding — the model-lint CI job's gate.
int CmdAnalyze(const std::string& path, const std::string& json_path, bool slices, bool lint) {
  auto cm = Load(path);
  if (!cm) return 1;
  if (lint) {
    const analysis::ModelAnalysis& ma = cm->analysis();
    std::size_t errors = 0;
    for (const auto& l : ma.lints) {
      if (l.severity == analysis::LintSeverity::kError) ++errors;
      std::printf("[%s] %s %s: %s\n", std::string(analysis::LintSeverityName(l.severity)).c_str(),
                  l.check.c_str(), l.block.c_str(), l.message.c_str());
    }
    std::printf("%s: %zu lint finding(s), %zu error(s)\n", cm->model().name().c_str(),
                ma.lints.size(), errors);
    return errors > 0 ? 1 : 0;
  }
  if (slices) {
    const analysis::SliceReport& sr = cm->slices();
    // Refine a copy: the slice-restricted reruns may strengthen kUnknown
    // verdicts that the whole-model fixpoint had to widen away.
    analysis::ModelAnalysis ma = cm->analysis();
    const int refined = analysis::RefineVerdictsWithSlices(cm->scheduled(), sr, ma);
    if (!json_path.empty()) {
      return WriteArtifact(json_path, analysis::SliceReportJson(cm->scheduled(), sr) + "\n",
                           "slice report (JSON)")
                 ? 0
                 : 1;
    }
    std::fputs(analysis::FormatSliceReport(cm->scheduled(), sr).c_str(), stdout);
    if (refined > 0) {
      std::printf("sliced fixpoint: %d additional objective(s) proved unreachable\n", refined);
    }
    std::fputs(analysis::FormatAnalysisReport(cm->scheduled(), ma).c_str(), stdout);
    return 0;
  }
  const analysis::ModelAnalysis& ma = cm->analysis();
  if (!json_path.empty()) {
    return WriteArtifact(json_path, analysis::AnalysisReportJson(cm->scheduled(), ma) + "\n",
                         "analysis report (JSON)")
               ? 0
               : 1;
  }
  std::fputs(analysis::FormatAnalysisReport(cm->scheduled(), ma).c_str(), stdout);
  return 0;
}

/// `cftcg explain`: decodes a campaign trace's provenance events (objective /
/// corpus / residual / provenance, plus start/stop for context) into the
/// campaign-explorer HTML and machine-readable first-hit tables. Tolerant of
/// truncated or garbage lines — they are counted, skipped, and surfaced.
int CmdExplain(const std::string& trace_path, const std::string& html_path,
               const std::string& json_path, const std::string& csv_path,
               const std::string& profile_path, const std::string& model_path) {
  std::ifstream in(trace_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", trace_path.c_str());
    return 1;
  }
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  coverage::CampaignExplorerData data;
  std::string mode;
  const obs::JsonlStats stats = obs::ForEachJsonl(text, [&](const obs::JsonValue& ev) {
    const std::string kind = ev.StringOr("ev", "?");
    if (kind == "start") {
      mode = ev.StringOr("mode", "");
    } else if (kind == "objective") {
      coverage::ExplorerObjective o;
      o.kind = ev.StringOr("kind", "?");
      o.name = ev.StringOr("name", "?");
      o.chain = ev.StringOr("chain", "");
      o.outcome = static_cast<int>(ev.NumberOr("outcome", -1));
      o.slot = static_cast<int>(ev.NumberOr("slot", -1));
      o.iteration = static_cast<std::uint64_t>(ev.NumberOr("iter", 0));
      o.time_s = ev.NumberOr("time_s", 0);
      o.entry_id = static_cast<std::int64_t>(ev.NumberOr("entry", -1));
      data.objectives.push_back(std::move(o));
    } else if (kind == "corpus") {
      coverage::ExplorerCorpusEntry e;
      e.id = static_cast<std::int64_t>(ev.NumberOr("id", -1));
      e.parent = static_cast<std::int64_t>(ev.NumberOr("parent", -1));
      e.depth = static_cast<std::uint64_t>(ev.NumberOr("depth", 0));
      e.chain = ev.StringOr("chain", "");
      e.time_s = ev.NumberOr("time_s", 0);
      e.metric = ev.NumberOr("metric", 0);
      e.new_slots = static_cast<std::uint64_t>(ev.NumberOr("new_slots", 0));
      data.corpus.push_back(std::move(e));
    } else if (kind == "residual") {
      coverage::ExplorerResidual r;
      r.name = ev.StringOr("name", "?");
      r.decision = static_cast<int>(ev.NumberOr("decision", -1));
      r.outcome = static_cast<int>(ev.NumberOr("outcome", -1));
      const obs::JsonValue* dist = ev.Find("distance");
      if (dist != nullptr && dist->kind == obs::JsonValue::Kind::kNumber) {
        r.distance = dist->number;
      } else {
        r.unreached = true;
      }
      r.justified = ev.NumberOr("justified", 0) != 0;
      r.reason = ev.StringOr("reason", "");
      data.residuals.push_back(std::move(r));
    } else if (kind == "provenance") {
      data.objectives_total = static_cast<std::size_t>(ev.NumberOr("total", 0));
    } else if (kind == "stop") {
      data.elapsed_s = ev.NumberOr("elapsed_s", 0);
      data.executions = static_cast<std::uint64_t>(ev.NumberOr("exec", 0));
    }
  });
  if (stats.parsed == 0) {
    std::fprintf(stderr, "error: %s: no valid JSONL among %zu line(s)\n", trace_path.c_str(),
                 stats.lines);
    return 1;
  }
  data.malformed_lines = stats.skipped;
  data.title = mode.empty() ? trace_path : mode + " — " + trace_path;
  // --profile: join the campaign self-profile into the explorer — the HTML
  // gains a hot-block execution heatmap and the phase time table.
  if (!profile_path.empty()) {
    auto prof = LoadProfile(profile_path);
    if (!prof.ok()) {
      std::fprintf(stderr, "error: %s\n", prof.message().c_str());
      return 1;
    }
    const obs::CampaignProfile& p = prof.value();
    data.profile_dispatches = p.vm_dispatches;
    data.profile_samples = p.samples;
    for (const auto& b : p.blocks) {
      data.profile_blocks.push_back({b.name, b.dispatches, b.dispatch_pct, b.sample_pct});
    }
    for (const auto& ph : p.phases) {
      if (ph.seconds > 0) data.profile_phases.push_back({ph.name, ph.seconds, ph.pct});
    }
  }
  // --model: join the dependence slices — the HTML gains a per-objective
  // influencing-inports panel, marked hit/miss against the trace's first
  // hits.
  if (!model_path.empty()) {
    auto cm = Load(model_path);
    if (!cm) return 1;
    std::set<int> hit_slots;
    for (const auto& o : data.objectives) {
      if (o.slot >= 0) hit_slots.insert(o.slot);
    }
    std::vector<std::string> inport_names;
    for (ir::BlockId id : cm->model().Inports()) {
      inport_names.push_back(cm->model().block(id).name());
    }
    for (const auto& sl : cm->slices().slices) {
      coverage::ExplorerSlice es;
      es.slot = sl.slot;
      es.name = sl.name;
      es.component = sl.component;
      es.cone_blocks = sl.cone.size();
      es.covered = hit_slots.count(sl.slot) > 0;
      for (int f : sl.fields) {
        if (!es.inports.empty()) es.inports += ", ";
        es.inports += static_cast<std::size_t>(f) < inport_names.size()
                          ? inport_names[static_cast<std::size_t>(f)]
                          : StrFormat("field%d", f);
      }
      if (es.inports.empty()) es.inports = "-";
      data.slices.push_back(std::move(es));
    }
  }

  if (data.objectives.empty() && data.corpus.empty()) {
    std::fprintf(stderr,
                 "warning: %s has no provenance events (record with cftcg fuzz --trace)\n",
                 trace_path.c_str());
  }

  // Outputs render from a time-sorted copy so every table reads as a
  // campaign timeline.
  std::sort(data.objectives.begin(), data.objectives.end(),
            [](const coverage::ExplorerObjective& a, const coverage::ExplorerObjective& b) {
              return a.time_s != b.time_s ? a.time_s < b.time_s : a.iteration < b.iteration;
            });

  if (!json_path.empty()) {
    std::string json = StrFormat(
        "{\"trace\":\"%s\",\"mode\":\"%s\",\"elapsed_s\":%s,\"executions\":%llu,"
        "\"covered\":%zu,\"total\":%zu,\"malformed_lines\":%zu,\"first_hits\":[",
        obs::JsonEscape(trace_path).c_str(), obs::JsonEscape(mode).c_str(),
        obs::JsonNumber(data.elapsed_s).c_str(),
        static_cast<unsigned long long>(data.executions), data.objectives.size(),
        data.objectives_total > 0 ? data.objectives_total
                                  : data.objectives.size() + data.residuals.size(),
        data.malformed_lines);
    for (std::size_t i = 0; i < data.objectives.size(); ++i) {
      const auto& o = data.objectives[i];
      if (i > 0) json += ',';
      json += StrFormat(
          "{\"kind\":\"%s\",\"name\":\"%s\",\"outcome\":%d,\"slot\":%d,\"iter\":%llu,"
          "\"time_s\":%s,\"entry\":%lld,\"chain\":\"%s\"}",
          obs::JsonEscape(o.kind).c_str(), obs::JsonEscape(o.name).c_str(), o.outcome, o.slot,
          static_cast<unsigned long long>(o.iteration), obs::JsonNumber(o.time_s).c_str(),
          static_cast<long long>(o.entry_id), obs::JsonEscape(o.chain).c_str());
    }
    json += "],\"residual\":[";
    for (std::size_t i = 0; i < data.residuals.size(); ++i) {
      const auto& r = data.residuals[i];
      if (i > 0) json += ',';
      json += StrFormat(
          "{\"name\":\"%s\",\"decision\":%d,\"outcome\":%d,\"distance\":%s,"
          "\"justified\":%s,\"reason\":\"%s\"}",
          obs::JsonEscape(r.name).c_str(), r.decision, r.outcome,
          r.unreached ? "\"unreached\"" : obs::JsonNumber(r.distance).c_str(),
          r.justified ? "true" : "false", obs::JsonEscape(r.reason).c_str());
    }
    json += "]}\n";
    if (!WriteArtifact(json_path, json, "first-hit table (JSON)")) return 1;
  }

  if (!csv_path.empty()) {
    auto field = [](const std::string& s) {
      std::string quoted = "\"";
      for (const char c : s) {
        quoted += c;
        if (c == '"') quoted += '"';
      }
      quoted += '"';
      return quoted;
    };
    std::string csv = "kind,name,outcome,slot,iter,time_s,entry,chain\n";
    for (const auto& o : data.objectives) {
      csv += StrFormat("%s,%s,%d,%d,%llu,%.6f,%lld,%s\n", o.kind.c_str(),
                       field(o.name).c_str(), o.outcome, o.slot,
                       static_cast<unsigned long long>(o.iteration), o.time_s,
                       static_cast<long long>(o.entry_id), field(o.chain).c_str());
    }
    if (!WriteArtifact(csv_path, csv, "first-hit table (CSV)")) return 1;
  }

  if (!html_path.empty()) {
    if (!WriteArtifact(html_path, coverage::RenderCampaignExplorer(data),
                       "campaign explorer (HTML)")) {
      return 1;
    }
  }

  if (html_path.empty() && json_path.empty() && csv_path.empty()) {
    // No artifact requested: print a terse first-hit / residual rundown.
    std::printf("campaign: %s, %llu executions in %.2fs; %zu objectives first-hit, %zu residual\n",
                mode.empty() ? "?" : mode.c_str(),
                static_cast<unsigned long long>(data.executions), data.elapsed_s,
                data.objectives.size(), data.residuals.size());
    if (data.malformed_lines > 0) {
      std::printf("(%zu malformed trace line(s) skipped)\n", data.malformed_lines);
    }
    for (const auto& o : data.objectives) {
      std::printf("  %8.3fs iter %-6llu entry %-4lld %-16s %s[%d] via %s\n", o.time_s,
                  static_cast<unsigned long long>(o.iteration),
                  static_cast<long long>(o.entry_id), o.kind.c_str(), o.name.c_str(), o.outcome,
                  o.chain.c_str());
    }
    for (const auto& r : data.residuals) {
      if (r.justified) {
        std::printf("  residual %-40s justified: %s\n", r.name.c_str(), r.reason.c_str());
      } else if (r.unreached) {
        std::printf("  residual %-40s unreached\n", r.name.c_str());
      } else {
        std::printf("  residual %-40s best distance %.6g\n", r.name.c_str(), r.distance);
      }
    }
  }
  return 0;
}

int CmdCover(const std::string& path, const std::string& csv_dir,
             const std::string& html_path) {
  auto cm = Load(path);
  if (!cm) return 1;
  fuzz::TupleLayout layout(cm->instrumented().input_types);
  vm::Machine machine(cm->instrumented());
  coverage::CoverageSink sink(cm->spec());
  const std::size_t tuple = cm->instrumented().TupleSize();

  // Every *.csv file in the directory, in name order. An entry whose type
  // cannot be read (a dangling link) is skipped, not an error.
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(csv_dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code type_ec;
    if (it->path().extension() == ".csv" && it->is_regular_file(type_ec)) {
      files.push_back(it->path());
    }
  }
  if (ec) {
    std::fprintf(stderr, "error: cannot list %s: %s\n", csv_dir.c_str(), ec.message().c_str());
    return 1;
  }
  std::sort(files.begin(), files.end());
  int replayed = 0;
  for (const auto& file : files) {
    std::ifstream in(file);
    if (!in) continue;
    std::string csv((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    auto data = fuzz::CsvToTestCase(layout, csv);
    if (!data.ok()) {
      std::fprintf(stderr, "skipping %s: %s\n", file.c_str(), data.message().c_str());
      continue;
    }
    machine.Reset();
    for (std::size_t off = 0; off + tuple <= data.value().size(); off += tuple) {
      sink.BeginIteration();
      machine.SetInputsFromBytes(data.value().data() + off);
      machine.Step(&sink);
      sink.AccumulateIteration();
    }
    ++replayed;
  }
  std::printf("replayed %d test cases\n", replayed);
  std::printf("suite coverage: %s\n",
              coverage::FormatReport(coverage::ComputeReport(sink)).c_str());
  const auto uncovered = coverage::UncoveredOutcomes(cm->spec(), sink.total());
  std::printf("uncovered decision outcomes: %zu\n", uncovered.size());
  for (const auto& u : uncovered) std::printf("  %s\n", u.c_str());
  if (!html_path.empty()) {
    if (Status s = support::WriteFileAtomic(html_path,
                                            coverage::RenderHtmlReport(cm->model().name(), sink));
        !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.message().c_str());
      return 1;
    }
    std::printf("HTML report written to %s\n", html_path.c_str());
  }
  return 0;
}

int CmdRun(const std::string& path, const std::string& csv_path) {
  auto cm = Load(path);
  if (!cm) return 1;
  std::ifstream in(csv_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", csv_path.c_str());
    return 1;
  }
  std::string csv((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  fuzz::TupleLayout layout(cm->instrumented().input_types);
  auto data = fuzz::CsvToTestCase(layout, csv);
  if (!data.ok()) {
    std::fprintf(stderr, "error: %s\n", data.message().c_str());
    return 1;
  }
  vm::Machine machine(cm->instrumented());
  coverage::CoverageSink sink(cm->spec());
  const std::size_t tuple = cm->instrumented().TupleSize();
  int step = 0;
  for (std::size_t off = 0; off + tuple <= data.value().size(); off += tuple) {
    sink.BeginIteration();
    machine.SetInputsFromBytes(data.value().data() + off);
    machine.Step(&sink);
    sink.AccumulateIteration();
    std::printf("step %3d:", step++);
    for (int o = 0; o < machine.num_outputs(); ++o) {
      std::printf(" %s", machine.GetOutput(o).ToString().c_str());
    }
    std::printf("\n");
  }
  std::printf("coverage of this test case: %s\n",
              coverage::FormatReport(coverage::ComputeReport(sink)).c_str());
  return 0;
}

int CmdExportBenchmarks(const std::string& dir) {
  if (!MakeDirs(dir)) return 1;
  for (const auto& info : bench_models::Roster()) {
    auto model = bench_models::Build(info.name);
    if (!model.ok()) {
      std::fprintf(stderr, "error: %s\n", model.message().c_str());
      return 1;
    }
    const std::string path = dir + "/" + info.name + ".cmx";
    if (Status s = parser::SaveModelFile(*model.value(), path); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.message().c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string cmd = argv[1];
  const std::string target = argv[2];

  std::string out;
  std::string csv;
  std::string csv_dir;
  std::string html;
  std::string json;
  double seconds = 10;
  bool seconds_set = false;
  std::uint64_t seed = 1;
  bool fuzz_only = false;
  bool minimize = false;
  bool analyze = false;
  bool focus = false;
  bool slices = false;
  bool lint = false;
  int jobs = 1;
  TelemetryFlags tf;
  DurabilityFlags df;
  ServeFlags sf;
  ProfileFlags pf;
  IsolationFlags isf;
  std::string diff;
  std::string folded;
  std::string profile_json;
  std::string model_path;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "-o" || a == "--out") out = next();
    else if (a == "--csv") csv = next();
    else if (a == "--csv-dir") csv_dir = next();
    else if (a == "--html") html = next();
    else if (a == "--json") json = next();
    else if (a == "--seconds") { seconds = std::atof(next().c_str()); seconds_set = true; }
    else if (a == "--seed") seed = static_cast<std::uint64_t>(std::atoll(next().c_str()));
    else if (a == "--fuzz-only") fuzz_only = true;
    else if (a == "--minimize") minimize = true;
    else if (a == "--analyze") analyze = true;
    else if (a == "--focus") focus = true;
    else if (a == "--slices") slices = true;
    else if (a == "--lint") lint = true;
    else if (a == "--model") model_path = next();
    else if (a == "-j" || a == "--jobs") jobs = std::atoi(next().c_str());
    else if (a == "--stats-every") tf.stats_every = std::atof(next().c_str());
    else if (a == "--trace") tf.trace_path = next();
    else if (a == "--metrics") tf.metrics_path = next();
    else if (a == "--max-execs") {
      df.max_execs = static_cast<std::uint64_t>(std::atoll(next().c_str()));
    }
    else if (a == "--checkpoint") df.checkpoint_path = next();
    else if (a == "--checkpoint-every") {
      df.checkpoint_every = static_cast<std::uint64_t>(std::atoll(next().c_str()));
    }
    else if (a == "--resume") df.resume = true;
    else if (a == "--step-budget") {
      df.step_budget = static_cast<std::uint64_t>(std::atoll(next().c_str()));
    }
    else if (a == "--hangs-dir") df.hangs_dir = next();
    else if (a == "--isolate") isf.isolate = true;
    else if (a == "--faults") isf.faults = next();
    else if (a == "--fault-seed") {
      isf.fault_seed = static_cast<std::uint64_t>(std::atoll(next().c_str()));
      isf.fault_seed_set = true;
    }
    else if (a == "--lane-timeout") isf.lane_timeout = std::atof(next().c_str());
    else if (a == "--max-restarts") isf.max_restarts = std::atoi(next().c_str());
    else if (a == "--crashes-dir") isf.crashes_dir = next();
    else if (a == "--serve") sf.port = std::atoi(next().c_str());
    else if (a == "--stall-window") sf.stall_window = std::atof(next().c_str());
    else if (a == "--profile") {
      // fuzz: boolean opt-in to timed self-profiling; explain: takes the
      // profile.json path to join into the explorer.
      if (cmd == "explain") profile_json = next();
      else pf.enabled = true;
    }
    else if (a == "--profile-strobe") {
      pf.strobe_period = static_cast<std::uint64_t>(std::atoll(next().c_str()));
    }
    else if (a == "--diff") diff = next();
    else if (a == "--folded") folded = next();
  }
  // An execution-bounded campaign without an explicit wall budget should run
  // to its execution count, not trip over the 10-second default — that would
  // silently break the deterministic (resume-identical) schedule.
  if (df.max_execs != UINT64_MAX && !seconds_set) seconds = 1e9;

  if (cmd == "info") return CmdInfo(target);
  if (cmd == "gen") return CmdGen(target, out);
  if (cmd == "analyze") return CmdAnalyze(target, json, slices, lint);
  if (cmd == "fuzz") {
    return CmdFuzz(target, seconds, seed, out, fuzz_only, minimize, analyze, focus, jobs, tf, df,
                   sf, pf, isf);
  }
  if (cmd == "run") return CmdRun(target, csv);
  if (cmd == "cover") return CmdCover(target, csv_dir, html);
  if (cmd == "trace-summary") return CmdTraceSummary(target);
  if (cmd == "profile") return CmdProfile(target, diff, folded);
  if (cmd == "explain") return CmdExplain(target, html, json, csv, profile_json, model_path);
  if (cmd == "export-benchmarks") return CmdExportBenchmarks(target);
  return Usage();
}
