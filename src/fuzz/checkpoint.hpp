// Campaign durability: versioned checkpoint / resume for the fuzzing engine.
//
// A checkpoint is the complete mid-campaign state of one engine — sequential
// or parallel — captured at a deterministic point of the schedule (between
// executions for the sequential loop; at a round barrier for the parallel
// driver). Restoring it and continuing is bit-identical to never having
// stopped: the corpus (with lineage and energies), the coverage frontier
// and MCDC evaluation sets, the comparison-operand mutation dictionary, the
// per-worker RNG streams, the provenance first-hits, and every counter are
// serialized, so the resumed campaign replays the exact same mutation /
// admission sequence.
//
// The on-disk format is a little-endian binary blob with a magic tag and a
// version word; readers reject any version other than their own (forward
// and backward) with a structured error instead of misparsing. Files are
// written through support::AtomicFileWriter, so a kill mid-write can never
// leave a torn checkpoint — the previous complete one survives.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "coverage/provenance.hpp"
#include "coverage/spec.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/wire.hpp"
#include "support/status.hpp"
#include "vm/cmp_trace.hpp"
#include "vm/program.hpp"

namespace cftcg::fuzz {

// Version history: 1 = initial format; 2 = appended the self-profile planes
// (per-instruction dispatch/sample counters, strobe countdown, phase times)
// to every worker state.
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// Complete resumable state of one sequential Fuzzer (one parallel worker).
/// Produced by Fuzzer::SaveState(), consumed via FuzzerOptions::resume.
struct FuzzerState {
  std::array<std::uint64_t, 4> rng_state{};
  std::uint64_t executions = 0;
  std::uint64_t model_iterations = 0;
  std::uint64_t measure_iterations = 0;
  std::uint64_t hangs = 0;
  double elapsed_s = 0;            // wall seconds consumed before the save
  std::uint64_t best_metric = 0;
  bool frontier_exhausted = false;
  StrategyStats strategy_stats;
  std::vector<CorpusEntry> corpus;
  std::vector<TestCase> test_cases;
  // Coverage frontier: the cumulative bitmap's raw words plus the
  // per-decision MCDC evaluation sets (canonically sorted).
  std::uint64_t total_bits = 0;
  std::vector<std::uint64_t> total_words;
  std::vector<std::vector<std::uint64_t>> evals;
  std::vector<std::uint64_t> seen_eval_sizes;
  // Fuzz-only mode: the cumulative edge map.
  std::vector<std::uint8_t> edge_total;
  // Mutation dictionary (libFuzzer TORC) — feeds future draws.
  vm::CmpTrace::State cmp_trace;
  // First-hit attribution recorded so far (replayed via AbsorbHit).
  std::vector<coverage::ObjectiveFirstHit> provenance_hits;
  // Self-profile planes (obs/profiler.hpp), v2: resumed campaigns continue
  // the dispatch counters and strobe schedule bit-identically.
  vm::ExecProfile exec_profile;
  vm::ExecProfile fuzz_exec_profile;
  obs::PhaseProfile phase_profile;
};

/// One on-disk checkpoint: campaign identity (validated on resume), engine
/// shape, parallel-driver state, and one FuzzerState per worker
/// (num_workers == 1 for the sequential engine; driver fields zero).
struct CampaignCheckpoint {
  std::uint32_t version = kCheckpointVersion;
  // -- Campaign identity ---------------------------------------------------
  std::uint64_t spec_fingerprint = 0;  // model/coverage-universe shape
  std::uint64_t seed = 0;
  bool model_oriented = true;
  bool use_idc_energy = true;
  bool analyzed = false;  // campaign ran with static-analysis justifications
  std::uint64_t max_tuples = 0;
  std::uint64_t step_budget = 0;  // hang-containment budget in force
  // -- Engine shape --------------------------------------------------------
  std::uint32_t num_workers = 1;
  std::uint64_t sync_every = 0;
  // -- Parallel driver state (zero / empty for the sequential engine) ------
  std::uint64_t rounds = 0;
  std::uint64_t imports = 0;
  std::vector<std::uint64_t> seen_signatures;  // sorted
  std::vector<std::uint64_t> scanned;          // per-worker corpus cursors
  double elapsed_s = 0;                        // driver wall clock
  // -- Per-worker state ----------------------------------------------------
  std::vector<FuzzerState> workers;
};

/// Structural hash of the coverage universe and program shape a campaign
/// runs against. Resume refuses a checkpoint whose fingerprint differs —
/// restoring bitsets against a different model would silently corrupt the
/// campaign.
std::uint64_t SpecFingerprint(const coverage::CoverageSpec& spec, const vm::Program& program);

std::string SerializeCheckpoint(const CampaignCheckpoint& ckpt);
Result<CampaignCheckpoint> ParseCheckpoint(std::string_view bytes);

/// One worker state in the checkpoint wire format. The supervisor's pipe
/// protocol ships these as round-barrier messages, so a worker state on the
/// wire is byte-identical to the corresponding checkpoint fragment.
void AppendFuzzerState(wire::Writer& w, const FuzzerState& s);
/// Bounds-checked inverse. Returns false (never crashes, never over-allocates)
/// on truncated or corrupted input.
bool ReadFuzzerState(wire::Reader& r, FuzzerState& s);

/// Atomic write (temp + rename): a kill mid-write leaves the previous
/// complete checkpoint in place.
Status WriteCheckpointFile(const std::string& path, const CampaignCheckpoint& ckpt);
Result<CampaignCheckpoint> ReadCheckpointFile(const std::string& path);

/// Validates checkpoint identity against the campaign about to resume.
/// `instrumented` and `fuzz_only`, when given, are the programs the resumed
/// workers will run. A worker's non-empty execution profile must then hold
/// one counter per instruction of that program: a checkpoint written by a
/// build that lowered the model differently would otherwise resume with its
/// counts booked against the wrong instructions.
Status ValidateCheckpoint(const CampaignCheckpoint& ckpt, const FuzzerOptions& options,
                          std::uint32_t num_workers, std::uint64_t spec_fingerprint,
                          const vm::Program* instrumented = nullptr,
                          const vm::Program* fuzz_only = nullptr);

/// Structural validation against the coverage universe the campaign will run
/// in: bitmap word counts, MCDC table sizes, eval-size tables. A bit-flipped
/// checkpoint that survives parsing must still fail here rather than feed
/// mis-shaped tables into the engine (whose restore path asserts in debug
/// builds but must never be reached with hostile sizes in release builds).
Status ValidateCheckpointShape(const CampaignCheckpoint& ckpt, std::uint64_t total_bits,
                               std::size_t num_decisions);

// -- Determinism fingerprints ---------------------------------------------
// Order-insensitive where the underlying container is a set, order-exact
// where order is part of campaign state. The resume-identity tests (and the
// CLI's final "state:" line) compare these across interrupted-and-resumed
// vs. uninterrupted campaigns.
std::uint64_t CorpusFingerprint(const Corpus& corpus);
/// Same digest over a serialized entry list (e.g. a FuzzerState's corpus) —
/// lets the supervisor fingerprint a lane it can no longer ask to do so.
std::uint64_t CorpusEntriesFingerprint(const std::vector<CorpusEntry>& entries);
std::uint64_t CoverageFingerprint(const coverage::CoverageSink& sink);
std::uint64_t ProvenanceFingerprint(const coverage::ProvenanceMap& provenance);

}  // namespace cftcg::fuzz
