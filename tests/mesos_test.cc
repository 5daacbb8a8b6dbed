// Tests for the Mesos-like offer substrate, including the Fig. 5 share
// plateaus the paper derives analytically for the Table II micro-benchmark.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "mesos/mesos.h"

namespace tsf::mesos {
namespace {

TEST(PaperFleet, MatchesExperimentSetup) {
  const std::vector<SlaveSpec> fleet = PaperFleet();
  ASSERT_EQ(fleet.size(), 50u);
  for (int n = 0; n < 25; ++n) {
    EXPECT_DOUBLE_EQ(fleet[n].capacity[0], 1.0);
    EXPECT_DOUBLE_EQ(fleet[n].capacity[1], 1024.0);
  }
  for (int n = 25; n < 50; ++n) EXPECT_DOUBLE_EQ(fleet[n].capacity[0], 2.0);
}

TEST(TableTwoJobs, MonopolyTaskCountsMatchTableII) {
  // Table II's h_i row: 75, 100, 100, 75 (CPU-bound for jobs 1 and 4,
  // memory caps jobs 2 and 3 at two 512 MB tasks per 1 GB node).
  const std::vector<SlaveSpec> fleet = PaperFleet();
  const std::vector<FrameworkSpec> jobs = TableTwoJobs();
  const double expected_h[] = {75.0, 100.0, 100.0, 75.0};
  for (std::size_t f = 0; f < jobs.size(); ++f) {
    double h = 0.0;
    for (const SlaveSpec& slave : fleet)
      h += slave.capacity.DivisibleTaskCount(jobs[f].demand);
    EXPECT_NEAR(h, expected_h[f], 1e-9) << jobs[f].name;
  }
}

TEST(RunCluster, SingleFrameworkMonopolizes) {
  ClusterConfig config;
  config.slaves = {{ResourceVector{2.0, 1024.0}, "n1"},
                   {ResourceVector{2.0, 1024.0}, "n2"}};
  config.sample_interval = 0.0;
  FrameworkSpec fw{.name = "solo", .start_time = 0.0, .num_tasks = 8,
                   .demand = ResourceVector{1.0, 256.0}, .mean_runtime = 10.0,
                   .runtime_jitter = 0.0};
  const SimOutcome outcome = RunCluster(config, {fw});
  ASSERT_EQ(outcome.frameworks.size(), 1u);
  EXPECT_EQ(outcome.frameworks[0].tasks_run, 8);
  // 4 concurrent slots → two waves of 10 s.
  EXPECT_NEAR(outcome.frameworks[0].completion_time, 20.0, 1e-9);
}

TEST(RunCluster, WhitelistIsHonored) {
  ClusterConfig config;
  config.slaves = {{ResourceVector{4.0, 1024.0}, "n1"},
                   {ResourceVector{4.0, 1024.0}, "n2"}};
  config.sample_interval = 0.0;
  FrameworkSpec fw{.name = "pinned", .start_time = 0.0, .num_tasks = 8,
                   .demand = ResourceVector{1.0, 128.0}, .mean_runtime = 5.0,
                   .runtime_jitter = 0.0, .whitelist = {1}};
  const SimOutcome outcome = RunCluster(config, {fw});
  // Only node 2's four slots usable → two waves.
  EXPECT_NEAR(outcome.frameworks[0].completion_time, 10.0, 1e-9);
}

TEST(RunCluster, TsfSharesCapacityByTaskShare) {
  // Two identical frameworks on one 4-slot node: each runs two at a time.
  ClusterConfig config;
  config.slaves = {{ResourceVector{4.0, 2048.0}, "n1"}};
  config.sample_interval = 0.0;
  std::vector<FrameworkSpec> fws(2);
  for (int f = 0; f < 2; ++f)
    fws[f] = {.name = "fw" + std::to_string(f), .start_time = 0.0,
              .num_tasks = 10, .demand = ResourceVector{1.0, 256.0},
              .mean_runtime = 4.0, .runtime_jitter = 0.0};
  const SimOutcome outcome = RunCluster(config, fws);
  // 20 tasks, 4 slots, 4 s each → makespan 20 s, both finish together.
  EXPECT_NEAR(outcome.frameworks[0].completion_time,
              outcome.frameworks[1].completion_time, 4.0 + 1e-9);
}

// The analytically derived share plateaus of Fig. 5 (Sec. VI-A2), with
// runtime jitter disabled for exactness:
//   t in (10, ~job2 done): job2 runs 50 tasks on nodes 1-25 (share 1/2),
//                          job1 runs 50 on nodes 26-50 (share 2/3).
//   t in (150+, job4 done): jobs 3 & 4 split the 20 whitelisted nodes
//                          (share 1/5 each); job1 holds 30 nodes (3/5).
TEST(RunCluster, Fig5SharePlateausMatchPaper) {
  ClusterConfig config;
  config.slaves = PaperFleet();
  config.sample_interval = 1.0;
  config.seed = 3;
  std::vector<FrameworkSpec> jobs = TableTwoJobs();
  for (FrameworkSpec& job : jobs) job.runtime_jitter = 0.0;
  // Stretch runtimes so plateaus are long and sampling is unambiguous.
  const SimOutcome outcome = RunCluster(config, jobs);

  auto share_at = [&](double time, std::size_t framework) {
    double best_delta = 1e18;
    double value = -1.0;
    for (const SharePoint& point : outcome.timeline) {
      const double delta = std::abs(point.time - time);
      if (delta < best_delta) {
        best_delta = delta;
        value = point.task_share[framework];
      }
    }
    return value;
  };

  // Before job2 arrives, job1 monopolizes: 75 slots for 1000 tasks, share
  // 75/75 = 1.
  EXPECT_NEAR(share_at(5.0, 0), 1.0, 0.05);
  // Job2's plateau. Slots hand over as job1 tasks finish (mean 23.2 s), so
  // sample after the transition settles: job2 at 1/2, job1 at 2/3.
  EXPECT_NEAR(share_at(45.0, 1), 0.5, 0.06);
  EXPECT_NEAR(share_at(45.0, 0), 2.0 / 3.0, 0.06);
  // Jobs 3 & 4 arrive at t=150 and split the 20 whitelisted nodes once
  // job1's tasks there drain; the paper reports both plateaus at 1/5 (the
  // exact level depends on the integer packing mix, so allow a band) and
  // job1 at 3/5.
  EXPECT_NEAR(share_at(200.0, 2), 0.21, 0.05);
  EXPECT_NEAR(share_at(200.0, 3), 0.21, 0.05);
  EXPECT_NEAR(std::abs(share_at(200.0, 2) - share_at(200.0, 3)), 0.0, 0.06);
  EXPECT_NEAR(share_at(200.0, 0), 0.6, 0.05);
}

TEST(RunCluster, DrfAllocatorUsesDominantShares) {
  // Node <8 CPU, 8192 MB>; fw A <4,512> has dominant share 1/2 per task,
  // fw B <1,512> has 1/8. DRF equalizes n_A/2 = n_B/8 → steady state is
  // 1 A + 4 B concurrently (CPU exactly full). With 40 A-tasks and 160
  // B-tasks both finish after 40 waves of 10 s.
  ClusterConfig config;
  config.slaves = {{ResourceVector{8.0, 8192.0}, "n1"}};
  config.policy = AllocatorPolicy::kDrf;
  config.sample_interval = 0.0;
  std::vector<FrameworkSpec> fws(2);
  fws[0] = {.name = "big", .start_time = 0.0, .num_tasks = 40,
            .demand = ResourceVector{4.0, 512.0}, .mean_runtime = 10.0,
            .runtime_jitter = 0.0};
  fws[1] = {.name = "small", .start_time = 0.0, .num_tasks = 160,
            .demand = ResourceVector{1.0, 512.0}, .mean_runtime = 10.0,
            .runtime_jitter = 0.0};
  const SimOutcome outcome = RunCluster(config, fws);
  EXPECT_NEAR(outcome.frameworks[0].completion_time, 400.0, 10.0 + 1e-9);
  EXPECT_NEAR(outcome.frameworks[1].completion_time, 400.0, 10.0 + 1e-9);
}

TEST(RunCluster, TimelineSamplesCoverTheRun) {
  ClusterConfig config;
  config.slaves = {{ResourceVector{2.0, 1024.0}, "n1"}};
  config.sample_interval = 2.0;
  FrameworkSpec fw{.name = "solo", .start_time = 0.0, .num_tasks = 6,
                   .demand = ResourceVector{1.0, 256.0}, .mean_runtime = 10.0,
                   .runtime_jitter = 0.0};
  const SimOutcome outcome = RunCluster(config, {fw});
  ASSERT_FALSE(outcome.timeline.empty());
  EXPECT_DOUBLE_EQ(outcome.timeline.front().time, 0.0);
  EXPECT_GE(outcome.timeline.back().time, outcome.makespan - 2.0);
  for (std::size_t k = 1; k < outcome.timeline.size(); ++k)
    EXPECT_GT(outcome.timeline[k].time, outcome.timeline[k - 1].time);
}

TEST(RunCluster, LateStartersWaitUntilRegistered) {
  ClusterConfig config;
  config.slaves = {{ResourceVector{4.0, 4096.0}, "n1"}};
  config.sample_interval = 0.0;
  std::vector<FrameworkSpec> fws(2);
  // Five slots; "early" takes four, leaving one free for the late arrival.
  fws[0] = {.name = "early", .start_time = 0.0, .num_tasks = 4,
            .demand = ResourceVector{0.8, 512.0}, .mean_runtime = 100.0,
            .runtime_jitter = 0.0};
  fws[1] = {.name = "late", .start_time = 50.0, .num_tasks = 1,
            .demand = ResourceVector{0.5, 512.0}, .mean_runtime = 10.0,
            .runtime_jitter = 0.0};
  const SimOutcome outcome = RunCluster(config, fws);
  EXPECT_DOUBLE_EQ(outcome.frameworks[1].first_task_time, 50.0);
}

TEST(RunClusterDeathTest, RejectsImpossibleFramework) {
  ClusterConfig config;
  config.slaves = {{ResourceVector{1.0, 128.0}, "n1"}};
  FrameworkSpec fw{.name = "huge", .start_time = 0.0, .num_tasks = 1,
                   .demand = ResourceVector{4.0, 4096.0}};
  EXPECT_DEATH(RunCluster(config, {fw}), "no slave fits");
}

// RunCluster on Table II's jobs with job2's `field` set to `value`.
SimOutcome RunTableTwoWith(double FrameworkSpec::*field, double value) {
  ClusterConfig config;
  config.slaves = PaperFleet();
  config.sample_interval = 0.0;
  std::vector<FrameworkSpec> jobs = TableTwoJobs();
  jobs[1].*field = value;
  return RunCluster(config, jobs);
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(RunClusterDeathTest, RejectsNonPositiveOrNonFiniteWeight) {
  // Weight 0 used to hang the master (the TSF key 0 * inf is NaN, so the
  // offer heap never settled); weight -1 silently ranked job2 first.
  for (const double weight : {0.0, -1.0, kInf, kNaN})
    EXPECT_DEATH(RunTableTwoWith(&FrameworkSpec::weight, weight),
                 "job2: weight must be finite and positive")
        << weight;
}

TEST(RunClusterDeathTest, RejectsNonPositiveOrNonFiniteMeanRuntime) {
  // A negative mean runtime used to schedule finishes in the past (job2's
  // first_task_time read -723 s).
  for (const double runtime : {-5.0, 0.0, kInf, kNaN})
    EXPECT_DEATH(RunTableTwoWith(&FrameworkSpec::mean_runtime, runtime),
                 "job2: mean_runtime must be finite and positive")
        << runtime;
}

TEST(RunClusterDeathTest, RejectsRuntimeJitterOutsideUnitInterval) {
  // Jitter 1 or more lets a task's runtime reach zero or go negative.
  for (const double jitter : {-0.1, 1.0, 1.5, kNaN})
    EXPECT_DEATH(RunTableTwoWith(&FrameworkSpec::runtime_jitter, jitter),
                 "job2: runtime_jitter must be in")
        << jitter;
}

TEST(RunClusterDeathTest, RejectsNonFiniteStartTime) {
  for (const double start : {kInf, -kInf, kNaN})
    EXPECT_DEATH(RunTableTwoWith(&FrameworkSpec::start_time, start),
                 "job2: start_time must be finite")
        << start;
}

// --- offer-path regression + fault injection --------------------------------

TEST(RunCluster, ExactlyFullSlavesAreSkippedNotOffered) {
  // Regression: a slave whose free capacity hits exactly zero mid-round
  // used to reach the fit probe and produce empty offers the framework
  // could only decline; the allocator now short-circuits it.
  ClusterConfig config;
  config.slaves = {{ResourceVector{2.0, 512.0}, "n1"},
                   {ResourceVector{2.0, 512.0}, "n2"}};
  config.sample_interval = 0.0;
  // Demand {1 CPU, 256 MB} on {2, 512} slaves: two tasks leave free
  // capacity at exactly <0, 0>.
  FrameworkSpec fw{.name = "fill", .start_time = 0.0, .num_tasks = 12,
                   .demand = ResourceVector{1.0, 256.0}, .mean_runtime = 4.0,
                   .runtime_jitter = 0.0};
  const SimOutcome outcome = RunCluster(config, {fw});
  EXPECT_EQ(outcome.frameworks[0].tasks_run, 12);
  EXPECT_EQ(outcome.stats.offers_accepted, 12);
  EXPECT_GT(outcome.stats.zero_slave_skips, 0);
  EXPECT_EQ(outcome.stats.down_slave_skips, 0);
}

long CountKind(const std::vector<MasterEvent>& stream,
               MasterEvent::Kind kind) {
  long count = 0;
  for (const MasterEvent& event : stream) count += event.kind == kind;
  return count;
}

TEST(RunCluster, SlaveCrashReschedulesKilledTasks) {
  ClusterConfig config;
  config.slaves = {{ResourceVector{2.0, 512.0}, "n1"},
                   {ResourceVector{2.0, 512.0}, "n2"}};
  config.sample_interval = 0.0;
  FrameworkSpec fw{.name = "f", .start_time = 0.0, .num_tasks = 8,
                   .demand = ResourceVector{1.0, 128.0}, .mean_runtime = 4.0,
                   .runtime_jitter = 0.0};
  RunOptions options;
  options.faults = {{2.0, Fault::Kind::kSlaveCrash, 1},
                    {3.0, Fault::Kind::kSlaveRestart, 1}};
  std::vector<MasterEvent> stream;
  options.stream = &stream;
  const SimOutcome outcome = RunCluster(config, {fw}, options);

  // The two tasks killed on slave 1 relaunch (fresh launch ids) and every
  // logical task still completes exactly once.
  EXPECT_EQ(outcome.frameworks[0].tasks_run, 8);
  EXPECT_EQ(CountKind(stream, MasterEvent::Kind::kKill), 2);
  EXPECT_EQ(CountKind(stream, MasterEvent::Kind::kCrash), 1);
  EXPECT_EQ(CountKind(stream, MasterEvent::Kind::kRestart), 1);
  EXPECT_EQ(CountKind(stream, MasterEvent::Kind::kLaunch), 10);
  EXPECT_EQ(CountKind(stream, MasterEvent::Kind::kFinish), 8);
  EXPECT_GT(outcome.stats.down_slave_skips, 0);
}

TEST(RunCluster, DisconnectPausesOffersUntilReregister) {
  ClusterConfig config;
  config.slaves = {{ResourceVector{1.0, 256.0}, "n1"}};
  config.sample_interval = 0.0;
  FrameworkSpec fw{.name = "f", .start_time = 0.0, .num_tasks = 4,
                   .demand = ResourceVector{1.0, 128.0}, .mean_runtime = 2.0,
                   .runtime_jitter = 0.0};
  RunOptions options;
  options.faults = {{1.0, Fault::Kind::kFrameworkDisconnect, 0},
                    {9.0, Fault::Kind::kFrameworkReregister, 0}};
  const SimOutcome outcome = RunCluster(config, {fw}, options);

  // Task 1 (launched at t=0) keeps running through the disconnect and
  // finishes at t=2; the remaining three wait for the t=9 re-register:
  // 9-11, 11-13, 13-15.
  EXPECT_EQ(outcome.frameworks[0].tasks_run, 4);
  EXPECT_NEAR(outcome.frameworks[0].completion_time, 15.0, 1e-9);
}

TEST(RunCluster, DeclineTimeoutBlacksOutOffers) {
  ClusterConfig config;
  config.slaves = {{ResourceVector{1.0, 256.0}, "n1"}};
  config.sample_interval = 0.0;
  FrameworkSpec fw{.name = "f", .start_time = 0.0, .num_tasks = 2,
                   .demand = ResourceVector{1.0, 128.0}, .mean_runtime = 2.0,
                   .runtime_jitter = 0.0};
  RunOptions options;
  // At t=2 the first task finishes; the blackout window [2, 8) makes the
  // framework decline until the nudge at t=8: second task runs 8-10.
  options.faults = {{2.0, Fault::Kind::kDeclineTimeout, 0, 6.0}};
  const SimOutcome outcome = RunCluster(config, {fw}, options);
  EXPECT_EQ(outcome.frameworks[0].tasks_run, 2);
  EXPECT_NEAR(outcome.frameworks[0].completion_time, 10.0, 1e-9);
  EXPECT_GT(outcome.stats.blackout_declines, 0);
}

}  // namespace
}  // namespace tsf::mesos
