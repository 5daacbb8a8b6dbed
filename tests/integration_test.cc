// Cross-module integration tests: full pipelines from workload synthesis
// through scheduling to metrics, and invariants that only hold when the
// pieces compose correctly.
#include <gtest/gtest.h>

#include "core/offline/policies.h"
#include "core/offline/properties.h"
#include "core/offline/weights.h"
#include "mesos/mesos.h"
#include "sim/runner.h"
#include "sim/slots.h"
#include "trace/google.h"
#include "trace/io.h"
#include "util/rng.h"

namespace tsf {
namespace {

trace::GoogleTraceConfig SmallTraceConfig(std::uint64_t seed) {
  trace::GoogleTraceConfig config;
  config.num_machines = 60;
  config.num_jobs = 150;
  config.seed = seed;
  return config;
}

TEST(Integration, SynthesizedWorkloadRunsUnderEveryPolicy) {
  const Workload workload = trace::SynthesizeGoogleWorkload(SmallTraceConfig(3));
  for (const OnlinePolicy& policy :
       {OnlinePolicy::Fifo(), OnlinePolicy::Drf(), OnlinePolicy::Cdrf(),
        OnlinePolicy::Cmmf(0, "CPU"), OnlinePolicy::Cmmf(1, "Mem"),
        OnlinePolicy::Tsf()}) {
    const SimResult result = Simulate(workload, policy);
    EXPECT_EQ(result.tasks.size(), workload.TotalTasks()) << policy.name;
    for (const JobRecord& job : result.jobs) {
      EXPECT_GE(job.QueueingDelay(), 0.0) << policy.name;
      EXPECT_GE(job.CompletionTime(), 0.0) << policy.name;
    }
    // Every task finishes at schedule + its pre-sampled runtime.
    for (const TaskRecord& task : result.tasks) {
      const double runtime =
          workload.jobs[task.job].task_runtimes[static_cast<std::size_t>(task.index)];
      EXPECT_NEAR(task.finish - task.schedule, runtime, 1e-9) << policy.name;
    }
  }
}

TEST(Integration, WorkloadSurvivesSerializationIntoSimulation) {
  // synthesize -> save -> load -> simulate must equal synthesize -> simulate
  // exactly (bit-identical placement streams), proving the text format is
  // lossless for everything the scheduler reads.
  const Workload original = trace::SynthesizeGoogleWorkload(SmallTraceConfig(5));
  Workload loaded;
  std::string error;
  ASSERT_TRUE(
      trace::WorkloadFromText(trace::WorkloadToText(original), &loaded, &error))
      << error;
  std::vector<SimStreamEvent> a, b;
  SimOptions options;
  options.stream = &a;
  (void)Simulate(original, OnlinePolicy::Tsf(), SimCore::kIncremental, options);
  options.stream = &b;
  (void)Simulate(loaded, OnlinePolicy::Tsf(), SimCore::kIncremental, options);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << "first divergence at event #" << i;
}

TEST(Integration, SlotSchedulerMatchesMultiResourceWhenSlotsEqualDemand) {
  // If every job demands exactly one slot's worth, the slot scheduler and
  // the multi-resource CMMF-style scheduler see the same packing problem;
  // makespans must agree.
  Workload workload;
  for (int m = 0; m < 4; ++m)
    workload.cluster.AddMachine(ResourceVector{4.0, 8.0});
  for (UserId i = 0; i < 3; ++i) {
    JobSpec spec{.id = i, .name = "j" + std::to_string(i),
                 .demand = {1.0, 2.0}};
    spec.num_tasks = 10;
    spec.arrival_time = static_cast<double>(i);
    workload.jobs.push_back(MakeUniformJob(spec, 6.0));
  }
  SlotSchedulerConfig slot_config;
  slot_config.slot_size = ResourceVector{1.0, 2.0};
  const SlotSimResult slots = SimulateSlotScheduler(workload, slot_config);
  const SimResult multi = Simulate(workload, OnlinePolicy::Tsf());
  EXPECT_NEAR(slots.sim.makespan, multi.makespan, 6.0 + 1e-9);
  EXPECT_NEAR(slots.mean_used_fraction, 1.0, 1e-9);  // zero fragmentation
}

TEST(Integration, OfflineOnlineAgreeOnSaturatedUniformCluster) {
  // A saturated homogeneous cluster with unconstrained equal jobs: the
  // online scheduler's steady state must match the offline allocation
  // exactly (no packing friction).
  SharingProblem problem;
  for (int m = 0; m < 5; ++m)
    problem.cluster.AddMachine(ResourceVector{4.0, 4.0});
  for (UserId i = 0; i < 4; ++i)
    problem.jobs.push_back(JobSpec{.id = i, .name = "u" + std::to_string(i),
                                   .demand = {1.0, 1.0}});
  const CompiledProblem compiled = Compile(problem);
  const FillingResult offline = SolveTsf(compiled);

  Workload workload;
  workload.cluster = problem.cluster;
  for (const JobSpec& spec : problem.jobs) {
    JobSpec job = spec;
    job.num_tasks = 1000;  // saturating backlog
    workload.jobs.push_back(MakeUniformJob(job, 50.0));
  }
  const SimResult online = Simulate(workload, OnlinePolicy::Tsf());
  // At t=25 (mid first wave) every job should hold its offline share of
  // the 20 slots: 5 tasks each.
  for (UserId i = 0; i < 4; ++i) {
    long running = 0;
    for (const TaskRecord& task : online.tasks)
      if (task.job == i && task.schedule <= 25.0 && task.finish > 25.0)
        ++running;
    EXPECT_NEAR(static_cast<double>(running),
                offline.allocation.UserTasks(i), 1e-6);
  }
}

TEST(Integration, MesosAndDesAgreeOnSimpleScenario) {
  // The same two-job scenario through both substrates: identical fleets,
  // demands, runtimes (jitter off) -> identical completion times.
  std::vector<mesos::SlaveSpec> slaves;
  Workload workload;
  for (int n = 0; n < 4; ++n) {
    slaves.push_back({ResourceVector{2.0, 2048.0}, "n" + std::to_string(n)});
    workload.cluster.AddMachine(ResourceVector{2.0, 2048.0});
  }
  std::vector<mesos::FrameworkSpec> frameworks(2);
  for (UserId i = 0; i < 2; ++i) {
    frameworks[i] = {.name = "f" + std::to_string(i), .start_time = 0.0,
                     .num_tasks = 16, .demand = ResourceVector{1.0, 512.0},
                     .mean_runtime = 10.0, .runtime_jitter = 0.0};
    JobSpec spec{.id = i, .name = "f" + std::to_string(i),
                 .demand = {1.0, 512.0}};
    spec.num_tasks = 16;
    workload.jobs.push_back(MakeUniformJob(spec, 10.0));
  }
  mesos::ClusterConfig config;
  config.slaves = slaves;
  config.sample_interval = 0.0;
  const mesos::SimOutcome offers = mesos::RunCluster(config, frameworks);
  const SimResult des = Simulate(workload, OnlinePolicy::Tsf());
  for (UserId i = 0; i < 2; ++i)
    EXPECT_NEAR(offers.frameworks[i].completion_time,
                des.jobs[i].completion, 1e-6);
}

TEST(Integration, Theorem1WeightsGuaranteeHoldsOnSynthesizedInstances) {
  // End-to-end Thm. 1 on richer instances than the unit tests: random
  // pools on trace-sampled clusters.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Cluster cluster = trace::SampleGoogleCluster(6, seed);
    SharingProblem problem;
    problem.cluster = cluster;
    Rng rng(seed * 11 + 2);
    for (UserId i = 0; i < 4; ++i) {
      JobSpec job{.id = i, .name = "u" + std::to_string(i)};
      job.demand = ResourceVector(
          std::vector<double>{rng.Uniform(0.5, 2.0), rng.Uniform(0.5, 4.0)});
      problem.jobs.push_back(std::move(job));
    }
    const CompiledProblem compiled = Compile(problem);
    DedicatedPools pools;
    pools.fraction.assign(4, std::vector<double>(6, 0.0));
    for (MachineId m = 0; m < 6; ++m) {
      std::vector<double> cuts(4);
      double total = 0;
      for (auto& c : cuts) total += (c = rng.Uniform(0.1, 1.0));
      for (UserId i = 0; i < 4; ++i) pools.fraction[i][m] = cuts[i] / total;
    }
    const CompiledProblem weighted =
        WithWeights(compiled, Theorem1Weights(compiled, pools));
    const FillingResult result = SolveTsf(weighted);
    for (UserId i = 0; i < 4; ++i) {
      const double k = DedicatedPoolTasks(compiled, i, pools.fraction[i]);
      EXPECT_GE(result.allocation.UserTasks(i), k - 1e-4)
          << "seed " << seed << " user " << i;
    }
  }
}

TEST(Integration, MultiSeedRunnerMatchesDirectSimulation) {
  // RunSeeds must produce exactly what a direct Simulate of the same
  // factory output produces.
  ThreadPool pool(2);
  const WorkloadFactory factory = [](std::uint64_t seed) {
    return trace::SynthesizeGoogleWorkload(SmallTraceConfig(seed));
  };
  RunSeeds(factory, {OnlinePolicy::Tsf()}, 7, 2, pool,
           [&](std::uint64_t seed, const std::vector<SimResult>& results) {
             const SimResult direct =
                 Simulate(factory(seed), OnlinePolicy::Tsf());
             ASSERT_EQ(results[0].tasks.size(), direct.tasks.size());
             EXPECT_DOUBLE_EQ(results[0].makespan, direct.makespan);
           });
}

}  // namespace
}  // namespace tsf
