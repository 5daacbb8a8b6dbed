// Scenario runners: one (workload × policy × FaultPlan) triple end to end.
//
// A scenario run executes a substrate with fault injection enabled and the
// stream recorder attached, converts the substrate-native stream into the
// checker's neutral form, and replays it through every invariant checker
// (invariants.h). Scenario generators are seed-deterministic so a repro
// file only needs the seed and the (possibly shrunk) plan to rebuild the
// exact failing run.
#pragma once

#include <cstdint>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/invariants.h"
#include "core/online/policy.h"
#include "mesos/mesos.h"
#include "sim/des.h"
#include "sim/workload.h"

namespace tsf::chaos {

struct ScenarioReport {
  std::vector<StreamEvent> stream;     // the converted, checked stream
  std::vector<Violation> violations;   // empty == all invariants hold
  std::uint64_t stream_hash = 0;       // HashStream(stream)

  bool ok() const { return violations.empty(); }
};

// The six online policies of the paper's macro-benchmarks, in canonical
// order (FIFO, DRF, CDRF, CMMF-CPU, CMMF-Mem, TSF).
std::vector<OnlinePolicy> AllOnlinePolicies();

// --- DES substrate ----------------------------------------------------------

// Seed-deterministic random workload sized so injected faults land while
// work is in flight (2-5 machines, 2-6 jobs, runtimes of a few seconds).
Workload RandomChaosWorkload(std::uint64_t seed);

// Like RandomChaosWorkload, but machine capacities and attribute sets are
// drawn whole from small per-seed menus, so several machines land in each
// equivalence class (core/cluster.h MachineClassIndex). Jobs mix
// unconstrained, attribute-constrained (class-uniform eligibility), and
// whitelisted (splits classes) constraints — the adversarial surface of
// the online scheduler's per-class bookkeeping.
Workload RandomUniformChaosWorkload(std::uint64_t seed);

struct DesScenario {
  Workload workload;
  FaultPlan plan;
};

// RandomChaosWorkload plus a RandomFaultPlan shaped to its cluster.
DesScenario RandomDesScenario(std::uint64_t seed);

// RandomUniformChaosWorkload plus a RandomFaultPlan shaped to its cluster:
// the golden/differential scenarios where faults hit machines inside
// populated equivalence classes.
DesScenario RandomUniformDesScenario(std::uint64_t seed);

// The checker's static view of a DES workload (normalized units, matching
// the scheduler's internal arithmetic).
ScenarioView ViewOfWorkload(const Workload& workload);

std::vector<StreamEvent> ConvertDesStream(
    const std::vector<SimStreamEvent>& stream);

// Simulates with faults + stream recording, then checks every invariant.
ScenarioReport RunDesScenario(const Workload& workload,
                              const OnlinePolicy& policy,
                              const FaultPlan& plan,
                              SimCore core = SimCore::kIncremental);

// --- Mesos substrate --------------------------------------------------------

struct MesosScenario {
  mesos::ClusterConfig config;
  std::vector<mesos::FrameworkSpec> frameworks;
  FaultPlan plan;
};

// Random offer-loop scenario; the allocator policy (TSF or DRF) is drawn
// from the seed. Fault times start after every framework has registered,
// so framework-level faults are always applicable.
MesosScenario RandomMesosScenario(std::uint64_t seed);

// The checker's static view of a Mesos cluster (raw units).
ScenarioView ViewOfMesos(const mesos::ClusterConfig& config,
                         const std::vector<mesos::FrameworkSpec>& frameworks);

std::vector<StreamEvent> ConvertMesosStream(
    const std::vector<mesos::MasterEvent>& stream);

ScenarioReport RunMesosScenario(const MesosScenario& scenario);

// --- Fairness convergence ---------------------------------------------------

// Post-quiescence fairness: time-averages each user's online task share
// over the fairness_timeline samples in [from, until] (the run must have
// used SimOptions::fairness_sample_interval > 0), max-normalizes both that
// vector and the offline ProgressiveFilling (SolveTsf) shares of the same
// instance, and returns the maximum absolute difference. Small values mean
// the faulted online run converged back to the offline fair point.
double FairnessGap(const Workload& workload, const SimResult& result,
                   double from, double until);

}  // namespace tsf::chaos
