// Open-loop load driver: runs a generated arrival stream (stream.h) against
// an online substrate and derives the SLO observability metrics from the
// recorded event stream.
//
// Both substrates already emit a total-order event stream (SimStreamEvent /
// MasterEvent) for the golden-determinism and chaos invariant checks; the
// driver reuses it as the measurement tap. Per-task time-to-placement is the
// virtual time between a task becoming pending (job arrival, or a
// fault-driven requeue) and its (re)placement; queue depth is the number of
// pending tasks at each sample instant. This is the only place either is
// computed: deriving both from the stream keeps the substrates untouched,
// and holding every sample makes the quantiles exact order statistics.
//
// Latencies are in milliseconds, the unit BENCH_slo.json reports.
//
// Every metric except wall_seconds is derived from virtual time and is
// therefore a deterministic function of (config, policy, faults), so the
// golden tests can pin it across machines bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/online/policy.h"
#include "load/stream.h"
#include "mesos/mesos.h"
#include "sim/des.h"
#include "stats/cdf.h"

namespace tsf::load {

// Pending-task count at a virtual-time instant (state just before the
// events at that instant apply).
struct QueueSample {
  double time = 0.0;
  long depth = 0;
};

// Time-to-placement samples for one aggregation bucket, in ms. Quantile()
// is the exact nearest-rank order statistic; a mix class that drew no job
// has an empty series (count() == 0), which has no quantiles.
struct LatencySeries {
  std::string label;  // "all" or a mix-class name
  EmpiricalCdf ttp_ms;
};

struct DriverConfig {
  StreamSpec stream;
  std::size_t num_machines = 60;
  // Virtual-time period of the queue-depth sampler (seconds); 0 disables.
  double queue_sample_interval = 1.0;
};

struct LoadReport {
  std::string substrate;  // "des" | "mesos"
  std::string policy;
  double rate = 0.0;      // the stream's configured arrival rate
  double makespan = 0.0;  // virtual seconds until the backlog drained
  double wall_seconds = 0.0;  // host wall time of the run (informational
                              // only: never hashed or gated)
  std::uint64_t total_jobs = 0;
  std::uint64_t total_tasks = 0;
  std::uint64_t placements = 0;  // includes fault-driven replacements
  std::uint64_t requeues = 0;    // kills + failures
  // FNV-1a over the full event stream — the determinism pin: equal streams
  // have equal hashes.
  std::uint64_t placement_hash = 0;
  LatencySeries all;
  std::vector<LatencySeries> per_class;  // one per mix class, stream order
  std::vector<QueueSample> queue_depth;
  // Mesos lanes only: the master's offer counters for the run.
  mesos::AllocatorStats allocator;
};

// Runs the stream through the DES substrate (sim/des.h) under `policy`.
LoadReport RunDesLoad(const DriverConfig& config, const OnlinePolicy& policy,
                      std::vector<SimFault> faults = {});

// Runs the stream through the Mesos master (mesos/mesos.h) under `policy`.
// The Mesos substrate does not preserve task identity across fault-driven
// relaunches, so pending times are matched FIFO per framework (entries are
// pushed in nondecreasing time order, so the match is exact for the
// fault-free case and oldest-first otherwise).
LoadReport RunMesosLoad(const DriverConfig& config,
                        mesos::AllocatorPolicy policy,
                        std::vector<mesos::Fault> faults = {});

}  // namespace tsf::load
