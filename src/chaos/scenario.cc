#include "chaos/scenario.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/offline/policies.h"
#include "util/check.h"
#include "util/rng.h"

namespace tsf::chaos {

std::vector<OnlinePolicy> AllOnlinePolicies() {
  return {OnlinePolicy::Fifo(),         OnlinePolicy::Drf(),
          OnlinePolicy::Cdrf(),         OnlinePolicy::Cmmf(0, "CPU"),
          OnlinePolicy::Cmmf(1, "Mem"), OnlinePolicy::Tsf()};
}

Workload RandomChaosWorkload(std::uint64_t seed) {
  Rng rng(seed);
  Workload workload;
  const auto machines = static_cast<std::size_t>(rng.Int(2, 5));
  for (std::size_t m = 0; m < machines; ++m)
    workload.cluster.AddMachine(ResourceVector(std::vector<double>{
        rng.Uniform(2.0, 8.0), rng.Uniform(2.0, 8.0)}));
  const auto jobs = static_cast<std::size_t>(rng.Int(2, 6));
  for (UserId i = 0; i < jobs; ++i) {
    JobSpec spec;
    spec.id = i;
    spec.name = "j" + std::to_string(i);
    // Demands guaranteed to fit the smallest possible machine (2.0).
    spec.demand = ResourceVector(std::vector<double>{
        rng.Uniform(0.3, 2.0), rng.Uniform(0.3, 2.0)});
    spec.arrival_time = rng.Uniform(0.0, 10.0);
    spec.num_tasks = rng.Int(3, 25);
    spec.weight = rng.Chance(0.5) ? 1.0 : rng.Uniform(0.5, 4.0);
    if (rng.Chance(0.5)) {
      std::vector<MachineId> allowed;
      for (MachineId m = 0; m < machines; ++m)
        if (rng.Chance(0.6)) allowed.push_back(m);
      if (allowed.empty()) allowed.push_back(rng.Below(machines));
      spec.constraint = Constraint::Whitelist(allowed);
    }
    workload.jobs.push_back(
        MakeJitteredJob(std::move(spec), rng.Uniform(4.0, 15.0), 0.2, rng()));
  }
  std::sort(workload.jobs.begin(), workload.jobs.end(),
            [](const SimJob& a, const SimJob& b) {
              return a.spec.arrival_time < b.spec.arrival_time;
            });
  for (std::size_t j = 0; j < workload.jobs.size(); ++j)
    workload.jobs[j].spec.id = j;
  return workload;
}

Workload RandomUniformChaosWorkload(std::uint64_t seed) {
  // Decorrelated from RandomChaosWorkload so the two generators' goldens
  // never alias even at equal seeds.
  Rng rng(seed ^ 0xda3e39cb94b95bdbull);
  Workload workload;

  // Menus first: every machine draws a whole (capacity, attributes)
  // configuration, so the cluster collapses into a handful of equivalence
  // classes with several members each.
  const auto num_shapes = static_cast<std::size_t>(rng.Int(1, 2));
  std::vector<ResourceVector> shapes;
  for (std::size_t s = 0; s < num_shapes; ++s)
    shapes.push_back(ResourceVector(std::vector<double>{
        rng.Uniform(3.0, 8.0), rng.Uniform(3.0, 8.0)}));
  const auto num_profiles = static_cast<std::size_t>(rng.Int(1, 2));
  std::vector<AttributeSet> profiles;
  for (std::size_t p = 0; p < num_profiles; ++p) {
    AttributeSet attributes;
    for (AttributeId a = 0; a < 4; ++a)
      if (rng.Chance(0.5)) attributes.Add(a);
    profiles.push_back(std::move(attributes));
  }

  const auto machines = static_cast<std::size_t>(rng.Int(4, 8));
  for (std::size_t m = 0; m < machines; ++m) {
    AttributeSet attributes = profiles[rng.Below(profiles.size())];
    workload.cluster.AddMachine(shapes[rng.Below(shapes.size())],
                                std::move(attributes));
  }

  const auto jobs = static_cast<std::size_t>(rng.Int(2, 6));
  for (UserId i = 0; i < jobs; ++i) {
    JobSpec spec;
    spec.id = i;
    spec.name = "j" + std::to_string(i);
    // Demands guaranteed to fit the smallest possible shape (3.0).
    spec.demand = ResourceVector(std::vector<double>{
        rng.Uniform(0.3, 2.0), rng.Uniform(0.3, 2.0)});
    spec.arrival_time = rng.Uniform(0.0, 10.0);
    spec.num_tasks = rng.Int(3, 25);
    spec.weight = rng.Chance(0.5) ? 1.0 : rng.Uniform(0.5, 4.0);
    const auto roll = rng.Int(0, 2);
    if (roll == 1) {
      // Whitelist: splits classes (a member can be listed while its
      // class-mates are not).
      std::vector<MachineId> allowed;
      for (MachineId m = 0; m < machines; ++m)
        if (rng.Chance(0.6)) allowed.push_back(m);
      if (allowed.empty()) allowed.push_back(rng.Below(machines));
      spec.constraint = Constraint::Whitelist(allowed);
    } else if (roll == 2) {
      // Attributes of a live machine: satisfiable by construction, and
      // eligibility stays class-uniform.
      const AttributeSet& menu =
          workload.cluster.machine(rng.Below(machines)).attributes;
      AttributeSet required;
      for (const AttributeId id : menu.ids())
        if (rng.Chance(0.5)) required.Add(id);
      if (!required.empty())
        spec.constraint = Constraint::RequireAttributes(std::move(required));
    }
    workload.jobs.push_back(
        MakeJitteredJob(std::move(spec), rng.Uniform(4.0, 15.0), 0.2, rng()));
  }
  std::sort(workload.jobs.begin(), workload.jobs.end(),
            [](const SimJob& a, const SimJob& b) {
              return a.spec.arrival_time < b.spec.arrival_time;
            });
  for (std::size_t j = 0; j < workload.jobs.size(); ++j)
    workload.jobs[j].spec.id = j;
  return workload;
}

DesScenario RandomDesScenario(std::uint64_t seed) {
  DesScenario scenario;
  scenario.workload = RandomChaosWorkload(seed);
  FaultPlanShape shape;
  shape.num_machines = scenario.workload.cluster.num_machines();
  shape.num_frameworks = 0;
  shape.earliest = 1.0;
  shape.horizon = 40.0;  // most faults land while tasks are in flight
  shape.max_atoms = 8;
  shape.mean_outage = 6.0;
  // Decorrelate the plan stream from the workload stream.
  scenario.plan = RandomFaultPlan(shape, seed ^ 0x9e3779b97f4a7c15ull);
  return scenario;
}

DesScenario RandomUniformDesScenario(std::uint64_t seed) {
  DesScenario scenario;
  scenario.workload = RandomUniformChaosWorkload(seed);
  FaultPlanShape shape;
  shape.num_machines = scenario.workload.cluster.num_machines();
  shape.num_frameworks = 0;
  shape.earliest = 1.0;
  shape.horizon = 40.0;
  shape.max_atoms = 8;
  shape.mean_outage = 6.0;
  scenario.plan = RandomFaultPlan(shape, seed ^ 0x9e3779b97f4a7c15ull);
  return scenario;
}

ScenarioView ViewOfWorkload(const Workload& workload) {
  const Cluster& cluster = workload.cluster;
  TSF_CHECK_GT(cluster.num_machines(), 0u);
  ScenarioView view;
  view.capacity.reserve(cluster.num_machines());
  for (MachineId m = 0; m < cluster.num_machines(); ++m)
    view.capacity.push_back(cluster.NormalizedCapacity(m));
  for (const SimJob& job : workload.jobs) {
    view.demand.push_back(cluster.NormalizedDemand(job.spec.demand));
    const DynamicBitset eligible = cluster.Eligibility(job.spec.constraint);
    std::vector<bool> allowed(cluster.num_machines(), false);
    eligible.ForEachSet([&](std::size_t m) { allowed[m] = true; });
    view.allowed.push_back(std::move(allowed));
    view.num_tasks.push_back(job.spec.num_tasks);
  }
  return view;
}

std::vector<StreamEvent> ConvertDesStream(
    const std::vector<SimStreamEvent>& stream) {
  std::vector<StreamEvent> converted;
  converted.reserve(stream.size());
  for (const SimStreamEvent& event : stream) {
    StreamEvent out;
    out.time = event.time;
    out.user = event.job;
    out.task = event.task;
    out.machine = event.machine;
    switch (event.kind) {
      case SimStreamEvent::Kind::kArrive:
        out.kind = StreamEvent::Kind::kArrive;
        break;
      case SimStreamEvent::Kind::kPlace:
        out.kind = StreamEvent::Kind::kPlace;
        break;
      case SimStreamEvent::Kind::kFinish:
        out.kind = StreamEvent::Kind::kFinish;
        break;
      case SimStreamEvent::Kind::kKill:
        out.kind = StreamEvent::Kind::kKill;
        break;
      case SimStreamEvent::Kind::kFail:
        out.kind = StreamEvent::Kind::kFail;
        break;
      case SimStreamEvent::Kind::kCrash:
        out.kind = StreamEvent::Kind::kCrash;
        break;
      case SimStreamEvent::Kind::kRestart:
        out.kind = StreamEvent::Kind::kRestart;
        break;
    }
    converted.push_back(out);
  }
  return converted;
}

ScenarioReport RunDesScenario(const Workload& workload,
                              const OnlinePolicy& policy,
                              const FaultPlan& plan, SimCore core) {
  TSF_CHECK(ValidateFaultPlan(plan, workload.cluster.num_machines(), 0).empty())
      << "ill-formed DES fault plan";
  std::vector<SimStreamEvent> raw;
  SimOptions options;
  options.faults = CompileForDes(plan);
  options.stream = &raw;
  Simulate(workload, policy, core, options);
  ScenarioReport report;
  report.stream = ConvertDesStream(raw);
  report.violations = CheckStream(ViewOfWorkload(workload), report.stream);
  report.stream_hash = HashStream(report.stream);
  return report;
}

MesosScenario RandomMesosScenario(std::uint64_t seed) {
  Rng rng(seed);
  MesosScenario scenario;
  const auto slaves = static_cast<std::size_t>(rng.Int(2, 4));
  for (std::size_t s = 0; s < slaves; ++s) {
    mesos::SlaveSpec slave;
    slave.capacity = ResourceVector(std::vector<double>{
        rng.Uniform(2.0, 6.0), rng.Uniform(2.0, 6.0)});
    slave.name = "s" + std::to_string(s);
    scenario.config.slaves.push_back(std::move(slave));
  }
  scenario.config.policy =
      rng.Chance(0.5) ? mesos::AllocatorPolicy::kTsf
                      : mesos::AllocatorPolicy::kDrf;
  scenario.config.seed = rng();
  scenario.config.sample_interval = 0.0;  // timeline not needed for checking
  const auto frameworks = static_cast<std::size_t>(rng.Int(2, 5));
  for (std::size_t f = 0; f < frameworks; ++f) {
    mesos::FrameworkSpec spec;
    spec.name = "f" + std::to_string(f);
    spec.start_time = rng.Uniform(0.0, 5.0);
    spec.num_tasks = rng.Int(5, 30);
    // Demands guaranteed to fit the smallest possible slave (2.0).
    spec.demand = ResourceVector(std::vector<double>{
        rng.Uniform(0.3, 2.0), rng.Uniform(0.3, 2.0)});
    spec.mean_runtime = rng.Uniform(4.0, 12.0);
    spec.runtime_jitter = 0.2;
    spec.weight = rng.Chance(0.5) ? 1.0 : rng.Uniform(0.5, 4.0);
    if (rng.Chance(0.4)) {
      for (std::size_t s = 0; s < slaves; ++s)
        if (rng.Chance(0.6)) spec.whitelist.push_back(s);
      if (spec.whitelist.empty())
        spec.whitelist.push_back(rng.Below(slaves));
    }
    scenario.frameworks.push_back(std::move(spec));
  }
  FaultPlanShape shape;
  shape.num_machines = slaves;
  shape.num_frameworks = frameworks;
  // Start after every framework registered (start times are < 5), so
  // disconnect faults always hit a registered framework.
  shape.earliest = 6.0;
  shape.horizon = 40.0;
  shape.max_atoms = 8;
  shape.mean_outage = 6.0;
  scenario.plan = RandomFaultPlan(shape, seed ^ 0xd1b54a32d192ed03ull);
  return scenario;
}

ScenarioView ViewOfMesos(const mesos::ClusterConfig& config,
                         const std::vector<mesos::FrameworkSpec>& frameworks) {
  ScenarioView view;
  for (const mesos::SlaveSpec& slave : config.slaves)
    view.capacity.push_back(slave.capacity);
  for (const mesos::FrameworkSpec& spec : frameworks) {
    view.demand.push_back(spec.demand);
    std::vector<bool> allowed(config.slaves.size(), spec.whitelist.empty());
    for (const std::size_t s : spec.whitelist) {
      TSF_CHECK_LT(s, config.slaves.size());
      allowed[s] = true;
    }
    view.allowed.push_back(std::move(allowed));
    view.num_tasks.push_back(spec.num_tasks);
  }
  return view;
}

std::vector<StreamEvent> ConvertMesosStream(
    const std::vector<mesos::MasterEvent>& stream) {
  std::vector<StreamEvent> converted;
  converted.reserve(stream.size());
  for (const mesos::MasterEvent& event : stream) {
    StreamEvent out;
    out.time = event.time;
    out.user = event.framework;
    out.task = event.task;
    out.machine = event.slave;
    switch (event.kind) {
      case mesos::MasterEvent::Kind::kRegister:
        out.kind = StreamEvent::Kind::kArrive;
        break;
      case mesos::MasterEvent::Kind::kDisconnect:
        out.kind = StreamEvent::Kind::kDisconnect;
        break;
      case mesos::MasterEvent::Kind::kReregister:
        out.kind = StreamEvent::Kind::kReregister;
        break;
      case mesos::MasterEvent::Kind::kLaunch:
        out.kind = StreamEvent::Kind::kPlace;
        break;
      case mesos::MasterEvent::Kind::kFinish:
        out.kind = StreamEvent::Kind::kFinish;
        break;
      case mesos::MasterEvent::Kind::kKill:
        out.kind = StreamEvent::Kind::kKill;
        break;
      case mesos::MasterEvent::Kind::kFail:
        out.kind = StreamEvent::Kind::kFail;
        break;
      case mesos::MasterEvent::Kind::kCrash:
        out.kind = StreamEvent::Kind::kCrash;
        break;
      case mesos::MasterEvent::Kind::kRestart:
        out.kind = StreamEvent::Kind::kRestart;
        break;
    }
    converted.push_back(out);
  }
  return converted;
}

ScenarioReport RunMesosScenario(const MesosScenario& scenario) {
  TSF_CHECK(ValidateFaultPlan(scenario.plan, scenario.config.slaves.size(),
                              scenario.frameworks.size())
                .empty())
      << "ill-formed Mesos fault plan";
  std::vector<mesos::MasterEvent> raw;
  mesos::RunOptions options;
  options.faults = CompileForMesos(scenario.plan);
  options.stream = &raw;
  mesos::RunCluster(scenario.config, scenario.frameworks, options);
  ScenarioReport report;
  report.stream = ConvertMesosStream(raw);
  report.violations = CheckStream(
      ViewOfMesos(scenario.config, scenario.frameworks), report.stream);
  report.stream_hash = HashStream(report.stream);
  return report;
}

double FairnessGap(const Workload& workload, const SimResult& result,
                   double from, double until) {
  TSF_CHECK_LT(from, until);
  const std::size_t users = workload.jobs.size();
  TSF_CHECK_GT(users, 0u);

  // Time-averaged online task share per user over the sample window. A
  // user absent from a window sample (already finished) averages in as 0.
  std::vector<double> online(users, 0.0);
  std::size_t samples_in_window = 0;
  double current_sample_time = -1.0;
  for (const telemetry::FairnessSample& sample : result.fairness_timeline) {
    if (sample.time < from || sample.time > until) continue;
    if (sample.time != current_sample_time) {
      current_sample_time = sample.time;
      ++samples_in_window;
    }
    TSF_CHECK_LT(sample.user, users);
    online[sample.user] += sample.task_share;
  }
  TSF_CHECK_GT(samples_in_window, 0u)
      << "no fairness samples in [" << from << ", " << until
      << "] — was fairness_sample_interval set?";
  for (double& share : online)
    share /= static_cast<double>(samples_in_window);

  // Offline fair point of the same instance.
  SharingProblem problem;
  problem.cluster = workload.cluster;
  for (const SimJob& job : workload.jobs) problem.jobs.push_back(job.spec);
  const FillingResult offline = SolveTsf(Compile(problem));
  TSF_CHECK_EQ(offline.shares.size(), users);

  const double online_max = *std::max_element(online.begin(), online.end());
  const double offline_max =
      *std::max_element(offline.shares.begin(), offline.shares.end());
  TSF_CHECK_GT(offline_max, 0.0);
  if (online_max <= 0.0) return 1.0;  // nothing ran in the window
  double gap = 0.0;
  for (std::size_t u = 0; u < users; ++u)
    gap = std::max(gap, std::abs(online[u] / online_max -
                                 offline.shares[u] / offline_max));
  return gap;
}

}  // namespace tsf::chaos
