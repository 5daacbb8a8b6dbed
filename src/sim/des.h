// Trace-driven discrete-event cluster simulator (the macro-benchmark
// substrate of Sec. VI-B).
//
// Two event kinds drive the run — job arrival and task completion — with the
// online scheduler invoked after each, exactly as Sec. V-D prescribes:
// arrivals greedily take whatever idle resources fit; every completion
// re-offers the freed machine to eligible users in ascending share order.
// Tasks are never preempted. Each distinct job constraint is compiled once
// (core/eligibility.h), and the scheduler keeps its wait lists per class
// of identical machines (core/cluster.h MachineClassIndex).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/online/policy.h"
#include "sim/workload.h"
#include "telemetry/timeline.h"

namespace tsf {

struct JobRecord {
  double arrival = 0.0;
  double first_schedule = std::numeric_limits<double>::infinity();
  double completion = 0.0;
  long num_tasks = 0;

  // Job queueing delay: arrival to first task scheduled (Fig. 9a).
  double QueueingDelay() const { return first_schedule - arrival; }
  // Job completion time: arrival to last task finished (Fig. 9b).
  double CompletionTime() const { return completion - arrival; }
};

struct TaskRecord {
  std::size_t job = 0;
  long index = 0;        // task index within the job
  double submit = 0.0;   // == job arrival (all tasks submitted with the job)
  double schedule = 0.0;
  double finish = 0.0;
  std::size_t machine = 0;  // machine of the (last) placement
  long attempts = 0;        // placements incl. fault-driven retries (>=1)

  // Task queueing delay: submission to scheduling (Fig. 11a).
  double QueueingDelay() const { return schedule - submit; }
};

struct SimResult {
  std::string policy;
  std::vector<JobRecord> jobs;
  std::vector<TaskRecord> tasks;  // ordered by (job, task index)
  double makespan = 0.0;
  // Filled when SimOptions::fairness_sample_interval > 0: every live user's
  // shares at each sample instant, ordered by (time, user).
  std::vector<telemetry::FairnessSample> fairness_timeline;

  std::vector<double> JobQueueingDelays() const;
  std::vector<double> JobCompletionTimes() const;
  std::vector<double> TaskQueueingDelays() const;
};

// --- chaos hooks (src/chaos fault injection) --------------------------------

// One fault, applied at a virtual-clock instant. Faults are the DES subset of
// the chaos subsystem's FaultPlan (src/chaos/fault_plan.h compiles plans down
// to this form); offer- and framework-level faults exist only in the Mesos
// substrate (mesos/mesos.h).
struct SimFault {
  enum class Kind {
    kMachineCrash,    // machine goes down; its running tasks are killed and
                      // re-enter the pending pool (same task identity/runtime)
    kMachineRestart,  // machine comes back, empty
    kTaskFailure,     // most recently placed task on the machine fails and
                      // re-enters the pending pool (no-op if none running)
  };
  double time = 0.0;
  Kind kind = Kind::kMachineCrash;
  MachineId machine = 0;
};

// One record per simulator state transition, emitted in order when
// SimOptions::stream is set. `task` is the global task slot (dense over
// (job, index)); `attempt` counts placements of that slot (0-based).
struct SimStreamEvent {
  enum class Kind {
    kArrive,   // job registered (task/machine/attempt zero)
    kPlace,    // task placed on machine
    kFinish,   // task completed on machine
    kKill,     // task killed by a machine crash, requeued
    kFail,     // task failed (machine stays up), requeued
    kCrash,    // machine went down
    kRestart,  // machine came back
  };
  double time = 0.0;
  Kind kind = Kind::kArrive;
  std::uint32_t job = 0;
  std::uint32_t task = 0;  // global task slot
  std::uint32_t machine = 0;
  std::uint32_t attempt = 0;

  bool operator==(const SimStreamEvent&) const = default;
};

// Optional observability knobs; the default runs exactly as before.
struct SimOptions {
  // Virtual-time period of the fairness timeline sampler (seconds); 0
  // disables sampling. Samples are taken at t = 0, interval, 2*interval, ...
  // up to the makespan, each reflecting the state just before the events at
  // that instant apply.
  double fairness_sample_interval = 0.0;

  // Fault events to inject, sorted by time (checked). Plans must be
  // well-formed — crash/restart strictly alternating per machine with every
  // crash eventually restarted (chaos::ValidateFaultPlan enforces this) —
  // otherwise the run can end with unfinished jobs, which is fatal.
  std::vector<SimFault> faults;

  // When set, every state transition is appended here (the placement stream
  // of the golden-determinism tests and the chaos invariant checkers).
  std::vector<SimStreamEvent>* stream = nullptr;
};

// Which scheduling core drives the simulation. kIncremental is the
// heap-based production core on machine classes; kReference is the
// retained linear-scan implementation (core/online/reference_scheduler.h),
// the executable spec of the differential tests — both must emit
// identical placement streams.
enum class SimCore { kIncremental, kReference };

// Runs `workload` to completion under `policy`. Jobs must be sorted by
// arrival time. The result's tasks vector is indexed consistently across
// policies (same workload → same task identity), enabling per-task speedup
// comparisons.
SimResult Simulate(const Workload& workload, const OnlinePolicy& policy,
                   SimCore core = SimCore::kIncremental,
                   const SimOptions& options = {});

}  // namespace tsf
