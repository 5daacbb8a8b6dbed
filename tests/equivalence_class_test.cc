// Differential tests for the equivalence-class scheduler engine: the
// OnlineScheduler must emit placement streams bit-identical to the
// ReferenceScheduler, across every policy, under fault injection (machine
// crashes and restores landing inside populated classes), on trace-profile
// workloads whose classes have many members, and on the paper's fleet,
// where nearly every class has one; and grouping machines into classes must
// not change the stream it emits on the same fleet split into classes of
// one. Any deviation is reported at the first diverging event, not as a
// bare hash mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/scenario.h"
#include "core/cluster.h"
#include "sim/des.h"
#include "trace/google.h"

namespace tsf::chaos {
namespace {

// First-divergence comparison of two checked scenario runs.
void ExpectSameStream(const ScenarioReport& reference,
                      const ScenarioReport& engine, const std::string& label) {
  const std::size_t n = std::min(reference.stream.size(), engine.stream.size());
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(FormatStreamEvent(reference.stream[i]),
              FormatStreamEvent(engine.stream[i]))
        << label << ": first divergence at event #" << i << " of "
        << reference.stream.size();
  EXPECT_EQ(reference.stream.size(), engine.stream.size())
      << label << ": streams agree on the first " << n
      << " events but lengths differ";
  EXPECT_EQ(reference.stream_hash, engine.stream_hash) << label;
}

// Runs both cores on one scenario; both must pass every invariant checker
// and emit the same stream.
void ExpectEngineMatchesReference(const Workload& workload,
                                  const OnlinePolicy& policy,
                                  const FaultPlan& plan,
                                  const std::string& label) {
  const ScenarioReport reference =
      RunDesScenario(workload, policy, plan, SimCore::kReference);
  const ScenarioReport engine =
      RunDesScenario(workload, policy, plan, SimCore::kIncremental);
  EXPECT_TRUE(reference.ok())
      << label << " (reference): " << ToString(reference.violations.front());
  EXPECT_TRUE(engine.ok())
      << label << " (engine): " << ToString(engine.violations.front());
  ExpectSameStream(reference, engine, label);
}

// The same workload on a fleet where every machine is its own class: each
// machine gets a private attribute above every id the fleet and the jobs
// name. No constraint asks for it, so eligibility and fits are unchanged,
// but no two machines share a class.
Workload SplitIntoClassesOfOne(const Workload& workload) {
  AttributeId next = 0;
  for (const Machine& machine : workload.cluster.machines())
    for (const AttributeId id : machine.attributes.ids())
      next = std::max(next, id + 1);
  for (const SimJob& job : workload.jobs)
    for (const AttributeId id : job.spec.constraint.required_attributes().ids())
      next = std::max(next, id + 1);
  std::vector<Machine> machines = workload.cluster.machines();
  for (Machine& machine : machines) machine.attributes.Add(next++);
  Workload split;
  split.cluster = Cluster(std::move(machines));
  split.jobs = workload.jobs;
  return split;
}

// The core contract: engine == reference for all six policies, across
// seeds, with fault plans whose crash/restore events hit machines in
// populated equivalence classes (RandomUniformChaosWorkload guarantees
// multi-member classes; whitelisted jobs split them).
TEST(EquivalenceClassTest, CollapsedMatchesReferenceScheduler) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const DesScenario scenario = RandomUniformDesScenario(seed);
    // The generator must actually produce multi-member classes, or this
    // test exercises nothing.
    ASSERT_LT(MachineClassIndex::CountClasses(scenario.workload.cluster),
              scenario.workload.cluster.num_machines())
        << "seed " << seed << " produced no multi-member class";
    for (const OnlinePolicy& policy : AllOnlinePolicies()) {
      std::ostringstream label;
      label << policy.name << " seed=" << seed;
      ExpectEngineMatchesReference(scenario.workload, policy, scenario.plan,
                                   label.str());
    }
  }
}

// Grouping is invisible: the engine on the fleet's own classes emits the
// stream it emits on the same fleet split into classes of one (the regime
// of a per-machine scheduler), for all six policies, across seeds, with
// fault plans that crash and restore members of populated classes.
TEST(EquivalenceClassTest, CollapsedMatchesFlatAcrossPoliciesSeedsAndFaults) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const DesScenario scenario = RandomUniformDesScenario(seed);
    const Workload flat = SplitIntoClassesOfOne(scenario.workload);
    ASSERT_LT(MachineClassIndex::CountClasses(scenario.workload.cluster),
              scenario.workload.cluster.num_machines())
        << "seed " << seed << " produced no multi-member class";
    ASSERT_EQ(MachineClassIndex::CountClasses(flat.cluster),
              flat.cluster.num_machines())
        << "seed " << seed << ": the split fleet still shares a class";
    for (const OnlinePolicy& policy : AllOnlinePolicies()) {
      std::ostringstream label;
      label << policy.name << " seed=" << seed;
      const ScenarioReport flat_run = RunDesScenario(
          flat, policy, scenario.plan, SimCore::kIncremental);
      const ScenarioReport collapsed =
          RunDesScenario(scenario.workload, policy, scenario.plan,
                         SimCore::kIncremental);
      EXPECT_TRUE(flat_run.ok()) << label.str() << " (flat): "
                                 << ToString(flat_run.violations.front());
      EXPECT_TRUE(collapsed.ok()) << label.str() << " (collapsed): "
                                  << ToString(collapsed.violations.front());
      ExpectSameStream(flat_run, collapsed, label.str());
    }
  }
}

// Trace-profile workloads (GoogleTraceConfig::num_attribute_profiles) are
// the trace-scale shape bench_scale runs: many machines per class, jobs
// with attribute constraints. Raw simulator streams must be identical and
// the derived task records must agree task-for-task.
TEST(EquivalenceClassTest, TraceProfileWorkloadMatchesReference) {
  trace::GoogleTraceConfig config;
  config.num_machines = 80;
  config.num_jobs = 60;
  config.num_attribute_profiles = 2;
  config.seed = 7;
  const Workload workload = trace::SynthesizeGoogleWorkload(config);
  ASSERT_LE(2 * MachineClassIndex::CountClasses(workload.cluster),
            workload.cluster.num_machines())
      << "profile menu failed to collapse the fleet";

  auto run = [&](SimCore core, std::vector<SimStreamEvent>* stream) {
    SimOptions options;
    options.stream = stream;
    return Simulate(workload, OnlinePolicy::Tsf(), core, options);
  };
  std::vector<SimStreamEvent> reference_stream, engine_stream;
  const SimResult reference = run(SimCore::kReference, &reference_stream);
  const SimResult engine = run(SimCore::kIncremental, &engine_stream);

  EXPECT_EQ(reference.makespan, engine.makespan);
  ASSERT_EQ(reference_stream.size(), engine_stream.size());
  for (std::size_t i = 0; i < reference_stream.size(); ++i) {
    const SimStreamEvent& a = reference_stream[i];
    const SimStreamEvent& b = engine_stream[i];
    ASSERT_TRUE(a.time == b.time && a.kind == b.kind && a.job == b.job &&
                a.task == b.task && a.machine == b.machine &&
                a.attempt == b.attempt)
        << "first divergence at event #" << i;
  }
  ASSERT_EQ(reference.tasks.size(), engine.tasks.size());
  for (std::size_t t = 0; t < reference.tasks.size(); ++t) {
    EXPECT_EQ(reference.tasks[t].machine, engine.tasks[t].machine)
        << "task " << t;
    EXPECT_EQ(reference.tasks[t].schedule, engine.tasks[t].schedule)
        << "task " << t;
    EXPECT_EQ(reference.tasks[t].finish, engine.tasks[t].finish)
        << "task " << t;
  }
}

// The paper's fleet (i.i.d. attribute draws, Figs. 9-11) at small scale,
// with the paper's jobs per machine: nearly every class has one member,
// jobs carry attribute constraints, most tasks queue, and a fault plan
// crashes and restores machines while they do. This is the regime the
// engine's classes of one must serve exactly as the reference does.
TEST(EquivalenceClassTest, PaperFleetMatchesReferenceUnderFaults) {
  trace::GoogleTraceConfig config;
  config.num_machines = 120;
  config.num_jobs = 540;
  config.seed = 26;  // 118 classes: two of two members among classes of one
  const Workload workload = trace::SynthesizeGoogleWorkload(config);
  const std::size_t num_machines = workload.cluster.num_machines();
  const MachineClassIndex classes(workload.cluster);
  std::size_t singletons = 0;
  for (std::size_t c = 0; c < classes.num_classes(); ++c)
    if (classes.class_size(c) == 1) ++singletons;
  ASSERT_GE(4 * singletons, 3 * num_machines)
      << "the i.i.d. fleet should be mostly classes of one";
  ASSERT_LT(classes.num_classes(), num_machines)
      << "no multi-member class to bound";
  std::size_t constrained = 0;
  for (const SimJob& job : workload.jobs)
    if (job.spec.constraint.kind() == Constraint::Kind::kRequireAttributes)
      ++constrained;
  ASSERT_GT(constrained, 0u) << "no attribute-constrained job";

  FaultPlanShape shape;
  shape.num_machines = num_machines;
  shape.earliest = 60.0;
  shape.horizon = 3000.0;
  shape.max_atoms = 8;
  shape.mean_outage = 300.0;
  const FaultPlan plan = RandomFaultPlan(shape, 11);
  ASSERT_FALSE(plan.events.empty());

  for (const OnlinePolicy& policy : AllOnlinePolicies())
    ExpectEngineMatchesReference(workload, policy, plan, policy.name);
}

// A whitelist naming an id past the cluster compiles as if the id were
// absent (Cluster::Eligibility), also on a fleet whose machines share one
// class.
TEST(EquivalenceClassTest, WhitelistIdPastTheClusterIsIgnored) {
  Workload workload;
  for (int m = 0; m < 4; ++m)
    workload.cluster.AddMachine(ResourceVector{4.0, 4.0});
  for (UserId i = 0; i < 2; ++i) {
    JobSpec spec;
    spec.id = i;
    spec.name = "j" + std::to_string(i);
    spec.demand = ResourceVector{1.0, 1.0};
    spec.arrival_time = static_cast<double>(i);
    spec.num_tasks = 10;
    if (i == 0) spec.constraint = Constraint::Whitelist({0, 7});
    workload.jobs.push_back(MakeJitteredJob(std::move(spec), 10.0, 0.2, 5 + i));
  }
  for (const OnlinePolicy& policy : AllOnlinePolicies())
    ExpectEngineMatchesReference(workload, policy, FaultPlan{}, policy.name);
}

// A hand-built crash/restore pair inside a populated class: 6 machines in
// 2 classes; a member of the loaded class goes down mid-flight (killing
// in-flight tasks) and comes back. The class upper bound goes stale-high
// during the outage — streams must still match exactly.
TEST(EquivalenceClassTest, CrashAndRestoreInsidePopulatedClass) {
  Workload workload;
  for (int m = 0; m < 4; ++m)
    workload.cluster.AddMachine(
        ResourceVector(std::vector<double>{4.0, 4.0}),
        AttributeSet(std::vector<AttributeId>{0}));
  for (int m = 0; m < 2; ++m)
    workload.cluster.AddMachine(
        ResourceVector(std::vector<double>{8.0, 2.0}),
        AttributeSet(std::vector<AttributeId>{1}));
  for (UserId i = 0; i < 3; ++i) {
    JobSpec spec;
    spec.id = i;
    spec.name = "j" + std::to_string(i);
    spec.demand = ResourceVector(std::vector<double>{1.0, 0.5 + 0.5 * i});
    spec.arrival_time = static_cast<double>(i);
    spec.num_tasks = 12;
    if (i == 1)
      spec.constraint =
          Constraint::RequireAttributes(AttributeSet(std::vector<AttributeId>{0}));
    workload.jobs.push_back(MakeJitteredJob(std::move(spec), 10.0, 0.2, 17 + i));
  }

  FaultPlan plan;
  plan.events.push_back({5.0, FaultKind::kMachineCrash, 1, 0.0});
  plan.events.push_back({7.0, FaultKind::kTaskFailure, 2, 0.0});
  plan.events.push_back({12.0, FaultKind::kMachineRestart, 1, 0.0});

  for (const OnlinePolicy& policy : AllOnlinePolicies())
    ExpectEngineMatchesReference(workload, policy, plan, policy.name);
}

// The Mesos substrate has its own master/allocator and no class engine; it
// must stay fully deterministic and invariant-clean.
TEST(EquivalenceClassTest, MesosSubstrateStaysDeterministic) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const MesosScenario scenario = RandomMesosScenario(seed);
    const ScenarioReport first = RunMesosScenario(scenario);
    const ScenarioReport second = RunMesosScenario(scenario);
    EXPECT_TRUE(first.ok()) << "mesos seed " << seed << ": "
                            << ToString(first.violations.front());
    EXPECT_EQ(first.stream_hash, second.stream_hash) << "mesos seed " << seed;
  }
}

}  // namespace
}  // namespace tsf::chaos
