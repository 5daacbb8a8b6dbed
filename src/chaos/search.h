// Feedback-driven scenario search (the guided mode of tools/fuzz_scenarios).
//
// Where the blind fuzzer draws every scenario independently from a seed
// counter, the guided search keeps a corpus of *interesting* fault plans and
// grows it by mutation (chaos/mutate.h), using three feedback signals from
// each instrumented run (chaos/scenario.h ScenarioRunOptions):
//
//   1. checker-branch coverage — the ChaosCoverage bitmap of invariants.cc:
//      a mutant that lights a branch the corpus has never exercised is kept;
//   2. interleaving novelty — a hash of the run's disruption ordering
//      (which fault kinds fired, separated by how much placement work), so
//      structurally new schedules are kept even at equal coverage;
//   3. fairness-gap magnitude — the post-quiescence convergence gap; a
//      mutant that degrades fairness more than anything seen is kept.
//
// Parent selection is pluggable (Frontier): FIFO, LIFO, or a scored
// max-heap. The whole loop is seed-deterministic — one tsf::Rng drives
// every choice, containers iterate in sorted order, and the result carries
// FNV hashes of the corpus and of the frontier pop sequence so two runs can
// be compared bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "chaos/repro.h"
#include "sim/des.h"

namespace tsf::chaos {

// Coarse fingerprint of a run's event interleaving: the sequence of
// disruptive event kinds (kill/fail/crash/restart/disconnect/re-register)
// with the amount of placement progress between them bucketed to log2.
// Deliberately lossy — runs differing only in exact task ids or timestamps
// collide, runs whose faults interleave differently with scheduling work do
// not.
std::uint64_t InterleavingSignature(const std::vector<StreamEvent>& stream);

// One admitted corpus member. `repro` alone rebuilds the run (the committed
// on-disk form is SerializeRepro with an empty violation); the rest is the
// admission-time feedback that justified keeping it.
struct CorpusEntry {
  Repro repro;
  ChaosCoverage coverage;        // branches this entry's run exercised
  std::uint64_t new_bits = 0;    // coverage bits first seen with this entry
  std::uint64_t novelty = 0;     // InterleavingSignature of the run
  double fairness_gap = -1.0;    // -1 when not computed (Mesos runs)
  std::uint64_t plan_hash = 0;   // HashFaultPlan(repro.plan)
  double score = 0.0;            // the "score" heuristic's priority
};

// Parent-selection order. Push/Pop move indices into the corpus vector;
// entries are popped exactly once per push (an exhausted frontier is
// re-seeded from the full corpus by the search loop).
class Frontier {
 public:
  virtual ~Frontier() = default;
  virtual void Push(std::size_t entry, double score) = 0;
  virtual std::size_t Pop() = 0;  // TSF_CHECK-fails when empty
  virtual bool Empty() const = 0;
};

// "bfs" (FIFO — breadth over the corpus), "dfs" (LIFO — chase the newest
// find), or "score" (max-heap on CorpusEntry::score, FIFO among ties).
// TSF_CHECK-fails on an unknown name.
std::unique_ptr<Frontier> MakeFrontier(const std::string& heuristic);

struct SearchOptions {
  // Scenario lanes to search: "des" | "des-uniform" | "mesos" | "both"
  // ("both" = all three, matching the blind fuzzer's lane set).
  std::string substrate = "both";
  // Online policy of the DES lanes (Mesos derives its allocator policy from
  // the scenario seed).
  std::string policy = "TSF";
  // Seed of the base scenario each lane starts from. The search mutates the
  // *plan* only; the workload/cluster of a lane stays pinned to this seed.
  std::uint64_t scenario_seed = 1;
  // Seed of the mutation/selection stream. Same (search_seed, scenario_seed,
  // corpus) => identical execution sequence and hashes.
  std::uint64_t search_seed = 1;
  std::size_t max_execs = 256;        // scenario runs, the search budget
  std::size_t mutations_per_parent = 4;
  std::string heuristic = "score";    // bfs | dfs | score
  // Stop at the first invariant violation (the executions-to-bug mode).
  // When false the search runs its full budget and violating plans are
  // recorded but never admitted to the corpus.
  bool stop_on_violation = true;
  // DES fairness feedback tap; 0 disables the fairness-gap signal.
  double fairness_sample_interval = 0.25;
  // Atom cap for mutants (the generator emits at most 8; the search may
  // grow denser plans up to this bound).
  std::size_t max_atoms = 16;
  // On-disk corpus to seed from (parsed corpus_*.txt files, in sorted
  // filename order). Entries of other substrates are ignored; duplicate
  // plans cost no executions.
  std::vector<Repro> corpus;
};

struct SearchResult {
  std::vector<CorpusEntry> corpus;    // admission order
  ChaosCoverage coverage;             // union over all executed runs
  std::size_t executions = 0;
  // Execution count at the first violation; 0 == none observed.
  std::size_t executions_to_violation = 0;
  // Every violating run, as an unshrunk repro (violation field filled).
  std::vector<Repro> violations;
  std::uint64_t corpus_hash = 0;      // FNV-1a over serialized corpus entries
  std::uint64_t frontier_hash = 0;    // FNV-1a over the pop sequence
  // Diagnostics for the tool's summary line.
  std::size_t duplicate_plans = 0;     // mutants deduped before running
  std::size_t inapplicable_mutations = 0;  // operators that returned nullopt
};

// Runs the guided loop: seed each enabled lane's base scenario, replay the
// provided corpus, then mutate frontier parents until the budget is spent
// (or the first violation under stop_on_violation). TSF_CHECK-fails on
// invalid options (unknown substrate/heuristic/cluster mode, zero budget)
// and on corpus entries whose plan does not validate against their own
// scenario.
SearchResult RunGuidedSearch(const SearchOptions& options);

// The blind baseline under the same accounting: iterate scenario seeds
// upward from options.scenario_seed (same lanes, same single DES policy),
// one run per lane per seed, until a violation or max_execs. This is what
// the executions-to-bug regression test compares RunGuidedSearch against.
struct BlindSweepResult {
  std::size_t executions = 0;
  std::size_t executions_to_violation = 0;  // 0 == none observed
  std::vector<Repro> violations;
};
BlindSweepResult RunBlindSweep(const SearchOptions& options);

}  // namespace tsf::chaos
