// Open-loop sustained-load stream synthesis (the SLO observatory's input).
//
// Unlike the batch workloads in sim/workload.h — where every job is known up
// front and the experiment ends when the backlog drains — an open-loop stream
// models a long-running allocator: jobs arrive at a configured *rate*
// regardless of how fast the cluster serves them, so queueing delay and
// time-to-placement tails are properties of the (rate, policy) operating
// point rather than of a fixed job list. The same generated stream feeds both
// online substrates (the DES scheduler cores and the Mesos master), which is
// what makes their latency numbers comparable.
//
// Everything here is a pure function of (StreamSpec, num_machines): two calls
// with the same inputs produce bit-identical job lists, which the
// determinism tests pin on both substrates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/resource.h"
#include "mesos/mesos.h"
#include "sim/workload.h"

namespace tsf::load {

// Inter-arrival shape of the open-loop process. All shapes share the same
// mean rate; they differ in how arrivals clump.
enum class ArrivalShape {
  kPoisson,  // exponential gaps (memoryless baseline)
  kBurst,    // Poisson arrivals time-compressed into a window at the start
             // of each burst_period (diurnal-peak / thundering-herd model)
  kUniform,  // evenly spaced (closed-form best case for queueing)
};

// One job class of the arrival mix. `weight` is the class-selection
// probability weight, not the job's fair-share weight (jobs all run at
// weight 1 so latency differences come from the policy, not the knob).
struct MixClass {
  std::string name;
  double weight = 1.0;
  long min_tasks = 1;
  long max_tasks = 1;            // task count ~ Uniform[min, max]
  ResourceVector demand;         // per-task, raw units
  double mean_runtime = 4.0;     // seconds
  double runtime_jitter = 0.2;   // +/- fraction around the mean
  double constrained_prob = 0.0;     // P(job carries a machine whitelist)
  double whitelist_fraction = 1.0;   // fraction of machines in that whitelist
};

struct StreamSpec {
  double rate = 1.0;       // mean job arrivals per virtual second
  double duration = 60.0;  // arrival window [0, duration); jobs then drain
  std::uint64_t seed = 1;
  ArrivalShape shape = ArrivalShape::kPoisson;
  double burst_period = 10.0;  // kBurst: one burst per period (seconds)
  double burst_width = 1.0;    // kBurst: arrivals squeezed into this width
  std::vector<MixClass> mix;   // empty => DefaultMix()
};

// A generated arrival stream plus the class labels the latency report
// aggregates by. jobs[i] belongs to class class_of[i] (an index into mix /
// class_names). Jobs are sorted by arrival time.
struct GeneratedStream {
  std::vector<SimJob> jobs;
  std::vector<std::uint32_t> class_of;
  std::vector<std::string> class_names;  // mix[c].name, for convenience
  std::vector<MixClass> mix;             // the resolved mix actually used
};

// Default three-class mix: many small latency-sensitive "mice", a band of
// medium "batch" jobs (half of them whitelist-constrained), and rare
// "elephant" jobs constrained to a quarter of the fleet. Demands are sized
// against MakeLoadCluster machines so every class fits on every machine.
std::vector<MixClass> DefaultMix();

// The observatory fleet: machine 2k gets <4 CPU, 8192 MB>, machine 2k+1 gets
// <2 CPU, 4096 MB> — two equivalence classes of many machines each.
Cluster MakeLoadCluster(std::size_t num_machines);

// The same fleet as Mesos slave specs (capacity-identical to
// MakeLoadCluster so the two substrates see one cluster).
std::vector<mesos::SlaveSpec> MakeLoadSlaves(std::size_t num_machines);

// Synthesizes the arrival stream. Deterministic in (spec, num_machines);
// requires rate > 0, duration > 0, and at least one generated arrival.
GeneratedStream GenerateArrivals(const StreamSpec& spec,
                                 std::size_t num_machines);

// The stream's jobs as Mesos frameworks (one framework per job, start_time =
// arrival, whitelist carried over). Task runtimes are re-jittered by the
// Mesos substrate from its own seed; determinism is per substrate.
std::vector<mesos::FrameworkSpec> ToFrameworks(const GeneratedStream& stream);

}  // namespace tsf::load
