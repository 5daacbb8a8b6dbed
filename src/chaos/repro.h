// Repro files: committed, replayable records of a failing chaos scenario.
//
// A repro carries everything needed to rebuild a failure from scratch: the
// substrate, the scenario seed (workload/cluster generators are
// seed-deterministic), the policy, the (shrunk) fault plan, and — for
// harness self-tests — which deliberately injected bug was armed. The text
// format is line-oriented and diff-friendly; tests/repros/*.txt are replayed
// by scenario_replay_test to keep shipped repros evergreen.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/invariants.h"
#include "chaos/scenario.h"

namespace tsf::chaos {

struct Repro {
  // "des" (RandomChaosWorkload), "des-uniform" (RandomUniformChaosWorkload,
  // the class-collapsible clusters), or "mesos" (RandomMesosScenario).
  std::string substrate;
  std::uint64_t scenario_seed = 0;
  // DES: online policy name (FIFO/DRF/CDRF/CPU/Mem/TSF); Mesos: ignored
  // (the allocator policy is derived from the scenario seed).
  std::string policy = "TSF";
  std::string injected_bug = "none";  // "none" | "leak_task_on_crash"
  FaultPlan plan;
  // Informational: the first violation observed when the repro was minted.
  std::string violation;

  bool operator==(const Repro&) const = default;
};

std::string SerializeRepro(const Repro& repro);
// Parses the SerializeRepro format. Returns false and sets *error to
// "line <n>: <defect>" on malformed input: a bad header, an unknown field,
// substrate, injected bug or DES policy, a bad seed, a missing substrate
// line, or a malformed fault line (ParseFaultPlan).
bool ParseRepro(const std::string& text, Repro* repro, std::string* error);

// Rebuilds the scenario from the seed, arms the injected bug (and disarms
// it afterwards), runs the plan, and returns the full scenario report: the
// recorded event stream, its hash, and the violations observed. An intact
// repro reports a non-empty violation list iff a bug (injected or real) is
// still present; the stream is what tools/viz_repro renders.
ScenarioReport ReplayReproReport(const Repro& repro);

// Convenience wrapper: just the violations of ReplayReproReport.
std::vector<Violation> ReplayRepro(const Repro& repro);

}  // namespace tsf::chaos
