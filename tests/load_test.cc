// Tests for the open-loop load driver (src/load): arrival-stream
// determinism and shape properties, and the acceptance-criteria pin that
// the same (seed, rate) yields bit-identical placement streams on both
// online substrates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/constraint.h"
#include "load/driver.h"
#include "load/stream.h"
#include "mesos/mesos.h"
#include "sim/des.h"

namespace tsf::load {
namespace {

StreamSpec SmallSpec(double rate = 1.0, std::uint64_t seed = 7) {
  StreamSpec spec;
  spec.rate = rate;
  spec.duration = 30.0;
  spec.seed = seed;
  return spec;
}

DriverConfig SmallConfig(double rate = 1.0, std::uint64_t seed = 7) {
  DriverConfig config;
  config.stream = SmallSpec(rate, seed);
  config.num_machines = 20;
  return config;
}

bool SameJobs(const GeneratedStream& a, const GeneratedStream& b) {
  if (a.jobs.size() != b.jobs.size()) return false;
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    const JobSpec& sa = a.jobs[j].spec;
    const JobSpec& sb = b.jobs[j].spec;
    if (sa.arrival_time != sb.arrival_time || sa.num_tasks != sb.num_tasks ||
        sa.name != sb.name || !(sa.demand == sb.demand) ||
        sa.constraint.machine_list() != sb.constraint.machine_list() ||
        a.jobs[j].task_runtimes != b.jobs[j].task_runtimes)
      return false;
  }
  return a.class_of == b.class_of;
}

TEST(LoadStream, ArrivalsAreDeterministicInSeed) {
  const GeneratedStream a = GenerateArrivals(SmallSpec(), 20);
  const GeneratedStream b = GenerateArrivals(SmallSpec(), 20);
  EXPECT_TRUE(SameJobs(a, b));

  const GeneratedStream other = GenerateArrivals(SmallSpec(1.0, 8), 20);
  EXPECT_FALSE(SameJobs(a, other)) << "different seeds must differ";
}

TEST(LoadStream, ArrivalsSortedAndInsideWindow) {
  for (const ArrivalShape shape :
       {ArrivalShape::kPoisson, ArrivalShape::kBurst, ArrivalShape::kUniform}) {
    StreamSpec spec = SmallSpec(2.0);
    spec.shape = shape;
    const GeneratedStream stream = GenerateArrivals(spec, 20);
    double prev = 0.0;
    for (const SimJob& job : stream.jobs) {
      EXPECT_GE(job.spec.arrival_time, prev);
      EXPECT_LT(job.spec.arrival_time, spec.duration);
      EXPECT_GT(job.spec.num_tasks, 0);
      EXPECT_EQ(job.task_runtimes.size(),
                static_cast<std::size_t>(job.spec.num_tasks));
      prev = job.spec.arrival_time;
    }
    EXPECT_EQ(stream.class_of.size(), stream.jobs.size());
  }
}

TEST(LoadStream, BurstShapeCompressesArrivals) {
  StreamSpec spec = SmallSpec(4.0);
  spec.shape = ArrivalShape::kBurst;
  spec.burst_period = 10.0;
  spec.burst_width = 2.0;
  const GeneratedStream stream = GenerateArrivals(spec, 20);
  for (const SimJob& job : stream.jobs) {
    const double offset =
        std::fmod(job.spec.arrival_time, spec.burst_period);
    EXPECT_LT(offset, spec.burst_width)
        << "burst arrivals must land inside the leading burst window";
  }
}

TEST(LoadStream, UniformShapeIsEvenlySpaced) {
  StreamSpec spec = SmallSpec(2.0);
  spec.shape = ArrivalShape::kUniform;
  const GeneratedStream stream = GenerateArrivals(spec, 20);
  ASSERT_EQ(stream.jobs.size(), 60u);  // rate * duration
  for (std::size_t j = 0; j < stream.jobs.size(); ++j)
    EXPECT_NEAR(stream.jobs[j].spec.arrival_time, 0.5 * static_cast<double>(j),
                1e-12);
}

TEST(LoadStream, WhitelistsRespectFractionAndFleetSize) {
  StreamSpec spec = SmallSpec(2.0);
  const std::size_t machines = 16;
  const GeneratedStream stream = GenerateArrivals(spec, machines);
  bool saw_constrained = false;
  for (const SimJob& job : stream.jobs) {
    if (job.spec.constraint.kind() != Constraint::Kind::kWhitelist) continue;
    saw_constrained = true;
    const auto& list = job.spec.constraint.machine_list();
    EXPECT_FALSE(list.empty());
    EXPECT_LE(list.size(), machines);
    for (const MachineId m : list) EXPECT_LT(m, machines);
  }
  EXPECT_TRUE(saw_constrained)
      << "default mix should produce some constrained jobs at 60 arrivals";
}

TEST(LoadStream, FrameworksMirrorJobs) {
  const GeneratedStream stream = GenerateArrivals(SmallSpec(), 20);
  const std::vector<mesos::FrameworkSpec> frameworks = ToFrameworks(stream);
  ASSERT_EQ(frameworks.size(), stream.jobs.size());
  for (std::size_t j = 0; j < frameworks.size(); ++j) {
    EXPECT_EQ(frameworks[j].name, stream.jobs[j].spec.name);
    EXPECT_EQ(frameworks[j].start_time, stream.jobs[j].spec.arrival_time);
    EXPECT_EQ(frameworks[j].num_tasks, stream.jobs[j].spec.num_tasks);
  }
}

// The acceptance-criteria pin: same seed + rate => bit-identical placement
// streams (hashes equal) and identical derived metrics, on both substrates.
TEST(LoadDriver, DesRunIsSeedDeterministic) {
  const DriverConfig config = SmallConfig();
  const LoadReport a = RunDesLoad(config, OnlinePolicy::Tsf());
  const LoadReport b = RunDesLoad(config, OnlinePolicy::Tsf());
  EXPECT_EQ(a.placement_hash, b.placement_hash);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.all.ttp_ms.count(), b.all.ttp_ms.count());
  EXPECT_EQ(a.all.ttp_ms.Quantile(0.99), b.all.ttp_ms.Quantile(0.99));
  ASSERT_EQ(a.queue_depth.size(), b.queue_depth.size());
  for (std::size_t i = 0; i < a.queue_depth.size(); ++i)
    EXPECT_EQ(a.queue_depth[i].depth, b.queue_depth[i].depth);

  const LoadReport other =
      RunDesLoad(SmallConfig(1.0, 8), OnlinePolicy::Tsf());
  EXPECT_NE(a.placement_hash, other.placement_hash);
}

TEST(LoadDriver, MesosRunIsSeedDeterministic) {
  const DriverConfig config = SmallConfig();
  const LoadReport a = RunMesosLoad(config, mesos::AllocatorPolicy::kTsf);
  const LoadReport b = RunMesosLoad(config, mesos::AllocatorPolicy::kTsf);
  EXPECT_EQ(a.placement_hash, b.placement_hash);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.all.ttp_ms.count(), b.all.ttp_ms.count());
  EXPECT_EQ(a.all.ttp_ms.Quantile(0.99), b.all.ttp_ms.Quantile(0.99));

  const LoadReport other =
      RunMesosLoad(SmallConfig(1.0, 8), mesos::AllocatorPolicy::kTsf);
  EXPECT_NE(a.placement_hash, other.placement_hash);
}

TEST(LoadDriver, EveryTaskIsPlacedExactlyOnceWithoutFaults) {
  for (const auto* policy : {"des", "mesos"}) {
    const DriverConfig config = SmallConfig();
    const LoadReport report =
        policy == std::string("des")
            ? RunDesLoad(config, OnlinePolicy::Tsf())
            : RunMesosLoad(config, mesos::AllocatorPolicy::kTsf);
    EXPECT_EQ(report.placements, report.total_tasks) << policy;
    EXPECT_EQ(report.requeues, 0u) << policy;
    EXPECT_EQ(report.all.ttp_ms.count(), report.total_tasks) << policy;
    // Per-class counts partition the total.
    std::uint64_t class_total = 0;
    for (const LatencySeries& series : report.per_class)
      class_total += series.ttp_ms.count();
    EXPECT_EQ(class_total, report.total_tasks) << policy;
    EXPECT_GE(report.all.ttp_ms.Quantile(0.99),
              report.all.ttp_ms.Quantile(0.5))
        << policy;
    EXPECT_GT(report.makespan, 0.0) << policy;
  }
}

// Nearest-rank order statistic of sorted samples: rank round(q * (n - 1)).
double NearestRank(const std::vector<double>& sorted, double q) {
  return sorted[static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5)];
}

// The driver's time-to-placement quantiles are exact order statistics. In a
// fault-free DES run a task's TTP is its queueing delay, so a plain
// Simulate on the same generated stream recomputes every sample. The lane
// is slo_report's default des_tsf_r0.5: most of its tasks place the
// instant they arrive, so the median is exactly 0.
TEST(LoadDriver, DesTimeToPlacementQuantilesAreExact) {
  DriverConfig config;
  config.stream.rate = 0.5;
  const LoadReport report = RunDesLoad(config, OnlinePolicy::Tsf());

  const GeneratedStream stream =
      GenerateArrivals(config.stream, config.num_machines);
  const SimResult result =
      Simulate(Workload{MakeLoadCluster(config.num_machines), stream.jobs},
               OnlinePolicy::Tsf());
  std::vector<double> ttp_ms;
  for (const TaskRecord& task : result.tasks)
    ttp_ms.push_back(task.QueueingDelay() * 1000.0);
  std::sort(ttp_ms.begin(), ttp_ms.end());

  const EmpiricalCdf& all = report.all.ttp_ms;
  ASSERT_EQ(all.count(), ttp_ms.size());
  EXPECT_EQ(all.Min(), ttp_ms.front());
  EXPECT_EQ(all.Max(), ttp_ms.back());
  for (const double q : {0.50, 0.95, 0.99})
    EXPECT_EQ(all.Quantile(q), NearestRank(ttp_ms, q)) << "q=" << q;
  EXPECT_EQ(all.Quantile(0.50), 0.0);
  EXPECT_GT(all.Quantile(0.95), 0.0);
}

// A mix class that draws no job leaves an empty series on both substrates,
// which reports count 0 instead of reaching a quantile of nothing.
TEST(LoadDriver, ClassWithoutJobsReportsEmptySeries) {
  DriverConfig config = SmallConfig();
  config.stream.mix = DefaultMix();
  config.stream.mix.back().weight = 0.0;
  for (const bool mesos : {false, true}) {
    const LoadReport report =
        mesos ? RunMesosLoad(config, mesos::AllocatorPolicy::kTsf)
              : RunDesLoad(config, OnlinePolicy::Tsf());
    ASSERT_EQ(report.per_class.size(), config.stream.mix.size());
    EXPECT_EQ(report.per_class.back().ttp_ms.count(), 0u) << report.substrate;
    EXPECT_TRUE(report.per_class.back().ttp_ms.empty()) << report.substrate;
    EXPECT_EQ(report.all.ttp_ms.count(), report.total_tasks)
        << report.substrate;
  }
}

TEST(LoadDriver, PoliciesProduceDistinctStreamsUnderContention) {
  const DriverConfig config = SmallConfig(2.0);
  const LoadReport tsf = RunDesLoad(config, OnlinePolicy::Tsf());
  const LoadReport drf = RunDesLoad(config, OnlinePolicy::Drf());
  EXPECT_EQ(tsf.total_tasks, drf.total_tasks);
  // Identical streams under both policies would mean the policy key is not
  // reaching the scheduler at this operating point.
  EXPECT_NE(tsf.placement_hash, drf.placement_hash);
}

TEST(LoadDriver, DesFaultOverlayRequeuesAndStillDrains) {
  DriverConfig config = SmallConfig();
  std::vector<SimFault> faults;
  faults.push_back({5.0, SimFault::Kind::kMachineCrash, 0});
  faults.push_back({9.0, SimFault::Kind::kMachineRestart, 0});
  const LoadReport report =
      RunDesLoad(config, OnlinePolicy::Tsf(), faults);
  EXPECT_EQ(report.all.ttp_ms.count(), report.placements);
  EXPECT_GE(report.placements, report.total_tasks);
  // Determinism holds under the fault overlay too.
  const LoadReport again =
      RunDesLoad(config, OnlinePolicy::Tsf(), faults);
  EXPECT_EQ(report.placement_hash, again.placement_hash);
}

TEST(LoadDriver, MesosFaultOverlayRequeuesAndStillDrains) {
  DriverConfig config = SmallConfig();
  std::vector<mesos::Fault> faults;
  faults.push_back({5.0, mesos::Fault::Kind::kSlaveCrash, 0, 0.0});
  faults.push_back({9.0, mesos::Fault::Kind::kSlaveRestart, 0, 0.0});
  const LoadReport report =
      RunMesosLoad(config, mesos::AllocatorPolicy::kTsf, faults);
  EXPECT_EQ(report.all.ttp_ms.count(), report.placements);
  EXPECT_GE(report.placements, report.total_tasks);
  const LoadReport again =
      RunMesosLoad(config, mesos::AllocatorPolicy::kTsf, faults);
  EXPECT_EQ(report.placement_hash, again.placement_hash);
}

TEST(LoadDriver, QueueDepthTimelineIsSampledAndEndsDrained) {
  DriverConfig config = SmallConfig(2.0);
  config.queue_sample_interval = 0.5;
  const LoadReport report = RunDesLoad(config, OnlinePolicy::Tsf());
  ASSERT_FALSE(report.queue_depth.empty());
  double prev = -1.0;
  for (const QueueSample& sample : report.queue_depth) {
    EXPECT_GT(sample.time, prev);
    EXPECT_GE(sample.depth, 0);
    prev = sample.time;
  }
  EXPECT_EQ(report.queue_depth.back().depth, 0)
      << "backlog must be drained at the makespan";
}

}  // namespace
}  // namespace tsf::load
