// Unit tests for the chaos harness itself (src/chaos): fault-plan
// generation/validation/serialization, the stream invariant checkers
// (fed hand-made violating streams), the atom-based ddmin shrinker, and
// repro round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/invariants.h"
#include "chaos/repro.h"
#include "chaos/scenario.h"
#include "chaos/shrink.h"

namespace tsf::chaos {
namespace {

using Kind = StreamEvent::Kind;

// --- fault plans ------------------------------------------------------------

FaultPlan RoundTrip(const FaultPlan& plan) {
  FaultPlan parsed;
  std::string error;
  EXPECT_TRUE(ParseFaultPlan(SerializeFaultPlan(plan), &parsed, &error))
      << error;
  return parsed;
}

TEST(FaultPlanTest, RandomDesPlansAreWellFormedAndRoundTrip) {
  FaultPlanShape shape;
  shape.num_machines = 4;
  shape.horizon = 50.0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const FaultPlan plan = RandomFaultPlan(shape, seed);
    EXPECT_EQ(ValidateFaultPlan(plan, shape.num_machines, 0), "")
        << "seed " << seed;
    EXPECT_EQ(RoundTrip(plan), plan) << "seed " << seed;
    // DES plans must compile (no Mesos-only kinds generated).
    EXPECT_EQ(CompileForDes(plan).size(), plan.events.size());
  }
}

TEST(FaultPlanTest, RandomMesosPlansAreWellFormedAndRoundTrip) {
  FaultPlanShape shape;
  shape.num_machines = 3;
  shape.num_frameworks = 4;
  shape.earliest = 5.0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const FaultPlan plan = RandomFaultPlan(shape, seed);
    EXPECT_EQ(ValidateFaultPlan(plan, shape.num_machines, shape.num_frameworks),
              "")
        << "seed " << seed;
    EXPECT_EQ(RoundTrip(plan), plan) << "seed " << seed;
    EXPECT_EQ(CompileForMesos(plan).size(), plan.events.size());
    for (const FaultSpec& event : plan.events)
      EXPECT_GE(event.time, shape.earliest);
  }
}

TEST(FaultPlanTest, RandomPlansAreSeedDeterministic) {
  FaultPlanShape shape;
  shape.num_machines = 4;
  shape.num_frameworks = 2;
  EXPECT_EQ(RandomFaultPlan(shape, 7), RandomFaultPlan(shape, 7));
  // Different seeds eventually differ (not a fixed plan).
  bool any_different = false;
  for (std::uint64_t seed = 1; seed <= 10 && !any_different; ++seed)
    any_different = !(RandomFaultPlan(shape, seed) == RandomFaultPlan(shape, 7));
  EXPECT_TRUE(any_different);
}

TEST(FaultPlanTest, ValidateRejectsMalformedPlans) {
  const auto spec = [](double time, FaultKind kind, std::size_t target,
                       double param = 0.0) {
    return FaultSpec{time, kind, target, param};
  };
  // Unsorted times.
  EXPECT_NE(ValidateFaultPlan(
                {{spec(5, FaultKind::kMachineCrash, 0),
                  spec(2, FaultKind::kMachineRestart, 0)}},
                2, 0),
            "");
  // Crash never lifted.
  EXPECT_NE(ValidateFaultPlan({{spec(1, FaultKind::kMachineCrash, 0)}}, 2, 0),
            "");
  // Restart of a machine that is up.
  EXPECT_NE(ValidateFaultPlan({{spec(1, FaultKind::kMachineRestart, 0)}}, 2, 0),
            "");
  // Double crash of the same target.
  EXPECT_NE(ValidateFaultPlan(
                {{spec(1, FaultKind::kMachineCrash, 0),
                  spec(2, FaultKind::kMachineCrash, 0),
                  spec(3, FaultKind::kMachineRestart, 0)}},
                2, 0),
            "");
  // Target out of range.
  EXPECT_NE(ValidateFaultPlan({{spec(1, FaultKind::kTaskFailure, 9)}}, 2, 0),
            "");
  // Mesos-only kind in a DES plan (num_frameworks == 0).
  EXPECT_NE(ValidateFaultPlan({{spec(1, FaultKind::kOfferDrop, 0, 1)}}, 2, 0),
            "");
  // Non-positive decline-timeout window.
  EXPECT_NE(ValidateFaultPlan(
                {{spec(1, FaultKind::kDeclineTimeout, 0, 0.0)}}, 2, 2),
            "");
  // Disconnect never re-registered.
  EXPECT_NE(ValidateFaultPlan(
                {{spec(1, FaultKind::kFrameworkDisconnect, 1)}}, 2, 2),
            "");
  // The fixed versions all pass.
  EXPECT_EQ(ValidateFaultPlan(
                {{spec(1, FaultKind::kMachineCrash, 0),
                  spec(2, FaultKind::kMachineRestart, 0),
                  spec(3, FaultKind::kTaskFailure, 1),
                  spec(4, FaultKind::kDeclineTimeout, 0, 2.5),
                  spec(5, FaultKind::kFrameworkDisconnect, 1),
                  spec(6, FaultKind::kFrameworkReregister, 1)}},
                2, 2),
            "");
}

TEST(FaultPlanTest, KindTokensRoundTrip) {
  for (const FaultKind kind :
       {FaultKind::kMachineCrash, FaultKind::kMachineRestart,
        FaultKind::kTaskFailure, FaultKind::kOfferDrop,
        FaultKind::kOfferRescind, FaultKind::kDeclineTimeout,
        FaultKind::kFrameworkDisconnect, FaultKind::kFrameworkReregister}) {
    FaultKind parsed = FaultKind::kMachineCrash;
    EXPECT_TRUE(FaultKindFromString(ToString(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
}

// Malformed fault plans and repro files are rejected with an error that
// names the offending line; none of them may throw or abort.
struct MalformedInput {
  const char* name;
  bool repro;  // ParseRepro if true, else ParseFaultPlan
  const char* text;
  const char* error;  // expected substring of the error
};

// Prints the case by name: gtest's fallback dumps the struct's bytes, and
// its pointers, which move from run to run, would end up in ctest names.
void PrintTo(const MalformedInput& input, std::ostream* os) {
  *os << input.name;
}

class MalformedInputTest : public testing::TestWithParam<MalformedInput> {};

TEST_P(MalformedInputTest, IsRejectedWithItsLine) {
  const MalformedInput& input = GetParam();
  std::string error;
  if (input.repro) {
    Repro repro;
    EXPECT_FALSE(ParseRepro(input.text, &repro, &error));
  } else {
    FaultPlan plan;
    EXPECT_FALSE(ParseFaultPlan(input.text, &plan, &error));
  }
  EXPECT_NE(error.find(input.error), std::string::npos) << error;
}

INSTANTIATE_TEST_SUITE_P(
    ChaosText, MalformedInputTest,
    testing::Values(
        MalformedInput{"time_not_a_number", false,
                       "fault crash t=abc target=0 param=0\n",
                       "line 1: bad time 'abc'"},
        MalformedInput{"target_overflows", false,
                       "# plan\nfault task_failure t=2 "
                       "target=99999999999999999999 param=0\n",
                       "line 2: bad target"},
        MalformedInput{"unknown_kind", false,
                       "fault meltdown t=1 target=0 param=0\n",
                       "line 1: unknown fault kind 'meltdown'"},
        MalformedInput{"time_infinite", false,
                       "fault crash t=inf target=0 param=0\n",
                       "line 1: bad time 'inf'"},
        MalformedInput{"time_nan", false,
                       "fault crash t=nan target=0 param=0\n",
                       "line 1: bad time 'nan'"},
        MalformedInput{"trailing_junk", false,
                       "fault crash t=1.5s target=0 param=0\n",
                       "line 1: bad time '1.5s'"},
        MalformedInput{"negative_target", false,
                       "fault crash t=1 target=-1 param=0\n",
                       "line 1: bad target '-1'"},
        MalformedInput{"missing_field", false, "fault crash t=1 target=0\n",
                       "line 1: malformed fault line"},
        MalformedInput{"extra_field", false,
                       "fault crash t=1 target=0 param=0 again\n",
                       "line 1: malformed fault line"},
        MalformedInput{"repro_unknown_field", true,
                       "tsf-chaos-repro v1\nsubstrate des\ncolour red\n",
                       "line 3: unknown repro field 'colour'"},
        MalformedInput{"repro_bad_header", true, "tsf-chaos-repro v9\n",
                       "line 1: not a chaos repro file"},
        MalformedInput{"repro_bad_seed", true,
                       "tsf-chaos-repro v1\nsubstrate des\nseed 12ab\n",
                       "line 3: bad seed '12ab'"},
        MalformedInput{"repro_unknown_bug", true,
                       "tsf-chaos-repro v1\nsubstrate mesos\nbug gremlin\n",
                       "line 3: unknown injected bug 'gremlin'"},
        MalformedInput{"repro_unknown_policy", true,
                       "tsf-chaos-repro v1\nsubstrate des\npolicy LIFO\n",
                       "unknown policy 'LIFO'"},
        MalformedInput{"repro_no_substrate", true,
                       "tsf-chaos-repro v1\nseed 3\n", "no substrate line"},
        MalformedInput{"repro_bad_fault", true,
                       "tsf-chaos-repro v1\nsubstrate des\nseed 1\n"
                       "fault crash t=1 target=0 param=0\n"
                       "fault restart t=abc target=0 param=0\n",
                       "line 5: bad time 'abc'"}),
    [](const testing::TestParamInfo<MalformedInput>& param_info) {
      return std::string(param_info.param.name);
    });

// --- invariant checkers -----------------------------------------------------

// A 2-machine, 2-user scenario view: machine capacity (1,1) each, user 0
// demands (0.4,0.4) anywhere, user 1 demands (0.6,0.6) on machine 0 only.
ScenarioView TwoUserView() {
  ScenarioView view;
  view.capacity = {ResourceVector{1.0, 1.0}, ResourceVector{1.0, 1.0}};
  view.demand = {ResourceVector{0.4, 0.4}, ResourceVector{0.6, 0.6}};
  view.allowed = {{true, true}, {true, false}};
  view.num_tasks = {1, 1};
  return view;
}

StreamEvent Ev(double time, Kind kind, std::uint32_t user, std::uint32_t task,
               std::uint32_t machine) {
  StreamEvent event;
  event.time = time;
  event.kind = kind;
  event.user = user;
  event.task = task;
  event.machine = machine;
  return event;
}

std::vector<std::string> Invariants(const std::vector<Violation>& violations) {
  std::vector<std::string> ids;
  for (const Violation& violation : violations)
    ids.push_back(violation.invariant);
  return ids;
}

bool Contains(const std::vector<Violation>& violations,
              const std::string& invariant) {
  const std::vector<std::string> ids = Invariants(violations);
  return std::find(ids.begin(), ids.end(), invariant) != ids.end();
}

TEST(InvariantsTest, CleanStreamHasNoViolations) {
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0),  Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(0, Kind::kPlace, 0, 0, 1),   Ev(0, Kind::kPlace, 1, 1, 0),
      Ev(3, Kind::kFinish, 0, 0, 1),  Ev(5, Kind::kFinish, 1, 1, 0),
  };
  EXPECT_TRUE(CheckStream(TwoUserView(), stream).empty());
}

TEST(InvariantsTest, CatchesClockRegression) {
  const std::vector<StreamEvent> stream = {
      Ev(2, Kind::kArrive, 0, 0, 0), Ev(1, Kind::kArrive, 1, 0, 0)};
  EXPECT_TRUE(Contains(CheckStream(TwoUserView(), stream), "clock_regression"));
}

TEST(InvariantsTest, CatchesWhitelistViolation) {
  // User 1 may only use machine 0; placing it on machine 1 must trip.
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(0, Kind::kPlace, 1, 0, 1),  Ev(1, Kind::kFinish, 1, 0, 1),
      Ev(1, Kind::kPlace, 0, 1, 0),  Ev(2, Kind::kFinish, 0, 1, 0)};
  EXPECT_TRUE(
      Contains(CheckStream(TwoUserView(), stream), "whitelist_violation"));
}

TEST(InvariantsTest, CatchesOversubscription) {
  // Two 0.6-demand tasks on one (1,1) machine.
  ScenarioView view = TwoUserView();
  view.num_tasks = {0, 2};
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(0, Kind::kPlace, 1, 0, 0),  Ev(0, Kind::kPlace, 1, 1, 0),
      Ev(1, Kind::kFinish, 1, 0, 0), Ev(1, Kind::kFinish, 1, 1, 0)};
  EXPECT_TRUE(Contains(CheckStream(view, stream), "oversubscription"));
}

TEST(InvariantsTest, CatchesDuplicateTaskIdAndGhostTask) {
  ScenarioView view = TwoUserView();
  view.num_tasks = {2, 0};
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      // Task id 0 live twice.
      Ev(0, Kind::kPlace, 0, 0, 0), Ev(0, Kind::kPlace, 0, 0, 1),
      // Finish of a task id never placed.
      Ev(1, Kind::kFinish, 0, 7, 0)};
  const std::vector<Violation> violations = CheckStream(view, stream);
  EXPECT_TRUE(Contains(violations, "duplicate_task_id"));
  EXPECT_TRUE(Contains(violations, "ghost_task"));
}

TEST(InvariantsTest, CatchesTaskSurvivingCrash) {
  // Machine 0 crashes while task 0 is still live on it — the stream shows
  // no kKill first, which is exactly the leak the injected bug plants.
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(0, Kind::kPlace, 0, 0, 0),  Ev(1, Kind::kCrash, 0, 0, 0)};
  EXPECT_TRUE(
      Contains(CheckStream(TwoUserView(), stream), "task_survived_crash"));
}

TEST(InvariantsTest, CrashKillRestartCycleIsClean) {
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(0, Kind::kPlace, 0, 0, 0),  Ev(0, Kind::kPlace, 1, 1, 0),
      Ev(1, Kind::kKill, 1, 1, 0),   Ev(1, Kind::kKill, 0, 0, 0),
      Ev(1, Kind::kCrash, 0, 0, 0),  Ev(2, Kind::kRestart, 0, 0, 0),
      Ev(2, Kind::kPlace, 0, 0, 0),  Ev(2, Kind::kPlace, 1, 1, 0),
      Ev(3, Kind::kFinish, 0, 0, 0), Ev(4, Kind::kFinish, 1, 1, 0)};
  ScenarioView view = TwoUserView();
  view.num_tasks = {1, 1};
  EXPECT_TRUE(CheckStream(view, stream).empty());
}

TEST(InvariantsTest, CatchesPlacementOnDownMachine) {
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(1, Kind::kCrash, 0, 0, 1),  Ev(1, Kind::kPlace, 0, 0, 1),
      Ev(2, Kind::kFinish, 0, 0, 1), Ev(3, Kind::kRestart, 0, 0, 1),
      Ev(3, Kind::kPlace, 1, 1, 0),  Ev(4, Kind::kFinish, 1, 1, 0)};
  EXPECT_TRUE(
      Contains(CheckStream(TwoUserView(), stream), "place_on_down_machine"));
}

TEST(InvariantsTest, CatchesPlacementWhileDisconnected) {
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0),     Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(1, Kind::kDisconnect, 0, 0, 0), Ev(1, Kind::kPlace, 0, 0, 0),
      Ev(2, Kind::kFinish, 0, 0, 0),     Ev(3, Kind::kReregister, 0, 0, 0),
      Ev(3, Kind::kPlace, 1, 1, 0),      Ev(4, Kind::kFinish, 1, 1, 0)};
  EXPECT_TRUE(Contains(CheckStream(TwoUserView(), stream),
                       "place_while_disconnected"));
}

TEST(InvariantsTest, FinalizeCatchesLeakAndShortfall) {
  // Task 0 of user 0 never finishes; user 1 never runs its task.
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(0, Kind::kPlace, 0, 0, 0)};
  const std::vector<Violation> violations =
      CheckStream(TwoUserView(), stream);
  EXPECT_TRUE(Contains(violations, "leaked_task"));
  EXPECT_TRUE(Contains(violations, "incomplete_user"));
}

TEST(InvariantsTest, LeakedTaskSweepReportsInSortedTaskIdOrder) {
  // Regression for a real nondeterminism hazard: the checker's live-task
  // shadow map used to be a std::unordered_map, so the leaked-task and
  // crash-survivor sweeps emitted violations in hash order — and violation
  // order is part of the harness's deterministic contract (shrink predicates
  // and committed repros match on the violation list). Place tasks with
  // deliberately non-sorted ids and require the sweep to report them in
  // ascending task-id order regardless of insertion order.
  ScenarioView view = TwoUserView();
  view.num_tasks = {3, 0};
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(0, Kind::kPlace, 0, 9, 0),  Ev(0, Kind::kPlace, 0, 2, 1),
      Ev(1, Kind::kPlace, 0, 7, 0)};
  const std::vector<Violation> violations = CheckStream(view, stream);
  std::vector<std::string> leaked;
  for (const Violation& violation : violations)
    if (violation.invariant == "leaked_task")
      leaked.push_back(violation.detail);
  ASSERT_EQ(leaked.size(), 3u);
  EXPECT_NE(leaked[0].find("task 2 "), std::string::npos) << leaked[0];
  EXPECT_NE(leaked[1].find("task 7 "), std::string::npos) << leaked[1];
  EXPECT_NE(leaked[2].find("task 9 "), std::string::npos) << leaked[2];
}

TEST(InvariantsTest, CrashSurvivorSweepReportsInSortedTaskIdOrder) {
  // Same contract for the crash-time sweep: survivors of a crashed machine
  // are reported in task-id order, not insertion order.
  ScenarioView view = TwoUserView();
  view.num_tasks = {2, 0};
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(0, Kind::kPlace, 0, 8, 1),  Ev(0, Kind::kPlace, 0, 3, 1),
      Ev(1, Kind::kCrash, 0, 0, 1)};
  const std::vector<Violation> violations = CheckStream(view, stream);
  std::vector<std::string> survivors;
  for (const Violation& violation : violations)
    if (violation.invariant == "task_survived_crash")
      survivors.push_back(violation.detail);
  ASSERT_EQ(survivors.size(), 2u);
  EXPECT_NE(survivors[0].find("task 3 "), std::string::npos) << survivors[0];
  EXPECT_NE(survivors[1].find("task 8 "), std::string::npos) << survivors[1];
}

TEST(InvariantsTest, FinalizeCatchesMachineLeftDown) {
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(0, Kind::kPlace, 0, 0, 1),  Ev(1, Kind::kFinish, 0, 0, 1),
      Ev(1, Kind::kPlace, 1, 1, 0),  Ev(2, Kind::kFinish, 1, 1, 0),
      Ev(3, Kind::kCrash, 0, 0, 1)};
  EXPECT_TRUE(
      Contains(CheckStream(TwoUserView(), stream), "machine_left_down"));
}

// --- stream formatting / hashing --------------------------------------------

TEST(StreamHashTest, FormatIsStable) {
  EXPECT_EQ(FormatStreamEvent(Ev(1.5, Kind::kPlace, 2, 7, 1)),
            "t=1.5 place user=2 task=7 machine=1");
}

TEST(StreamHashTest, HashIsOrderAndContentSensitive) {
  const std::vector<StreamEvent> a = {Ev(0, Kind::kArrive, 0, 0, 0),
                                      Ev(1, Kind::kPlace, 0, 0, 1)};
  std::vector<StreamEvent> b = a;
  b[1].machine = 0;
  std::vector<StreamEvent> c = {a[1], a[0]};
  EXPECT_NE(HashStream(a), HashStream(b));
  EXPECT_NE(HashStream(a), HashStream(c));
  EXPECT_EQ(HashStream(a), HashStream(a));
  EXPECT_NE(HashStream({}), 0u);  // FNV offset basis, not zero
}

// --- shrinker ---------------------------------------------------------------

FaultPlan SixAtomPlan() {
  FaultPlan plan;
  const auto add = [&](double time, FaultKind kind, std::size_t target) {
    plan.events.push_back(FaultSpec{time, kind, target, 0.0});
  };
  add(1, FaultKind::kTaskFailure, 0);
  add(2, FaultKind::kMachineCrash, 0);
  add(3, FaultKind::kMachineCrash, 1);
  add(4, FaultKind::kMachineRestart, 0);
  add(5, FaultKind::kTaskFailure, 2);
  add(6, FaultKind::kMachineRestart, 1);
  add(7, FaultKind::kMachineCrash, 2);
  add(8, FaultKind::kMachineRestart, 2);
  add(9, FaultKind::kTaskFailure, 1);
  return plan;
}

bool HasEvent(const FaultPlan& plan, FaultKind kind, std::size_t target) {
  return std::any_of(plan.events.begin(), plan.events.end(),
                     [&](const FaultSpec& event) {
                       return event.kind == kind && event.target == target;
                     });
}

TEST(ShrinkTest, ReducesToSingleCulpritAtom) {
  // Failure caused by the crash of machine 1 alone: ddmin must come back
  // with exactly that crash and its paired restart.
  const ShrinkResult result =
      ShrinkFaultPlan(SixAtomPlan(), [](const FaultPlan& candidate) {
        return HasEvent(candidate, FaultKind::kMachineCrash, 1);
      });
  ASSERT_EQ(result.plan.events.size(), 2u);
  EXPECT_EQ(result.plan.events[0].kind, FaultKind::kMachineCrash);
  EXPECT_EQ(result.plan.events[0].target, 1u);
  EXPECT_EQ(result.plan.events[1].kind, FaultKind::kMachineRestart);
  EXPECT_EQ(result.plan.events[1].target, 1u);
  EXPECT_GT(result.predicate_calls, 0u);
  // Every candidate the shrinker produced was well-formed by construction;
  // so is the minimum.
  EXPECT_EQ(ValidateFaultPlan(result.plan, 3, 0), "");
}

TEST(ShrinkTest, KeepsConjunctionOfTwoAtoms) {
  // Failure needs BOTH the machine-1 crash and the task failure on machine
  // 2 — 1-minimality keeps the pair plus the single event, nothing else.
  const ShrinkResult result =
      ShrinkFaultPlan(SixAtomPlan(), [](const FaultPlan& candidate) {
        return HasEvent(candidate, FaultKind::kMachineCrash, 1) &&
               HasEvent(candidate, FaultKind::kTaskFailure, 2);
      });
  ASSERT_EQ(result.plan.events.size(), 3u);
  EXPECT_TRUE(HasEvent(result.plan, FaultKind::kMachineCrash, 1));
  EXPECT_TRUE(HasEvent(result.plan, FaultKind::kMachineRestart, 1));
  EXPECT_TRUE(HasEvent(result.plan, FaultKind::kTaskFailure, 2));
  // Time order preserved.
  for (std::size_t i = 1; i < result.plan.events.size(); ++i)
    EXPECT_LE(result.plan.events[i - 1].time, result.plan.events[i].time);
}

TEST(ShrinkTest, AlwaysFailingPlanShrinksToOneAtom) {
  const ShrinkResult result =
      ShrinkFaultPlan(SixAtomPlan(), [](const FaultPlan&) { return true; });
  // 1-minimal for a constant-true predicate is a single atom (1 or 2 events).
  EXPECT_LE(result.plan.events.size(), 2u);
  EXPECT_GE(result.plan.events.size(), 1u);
}

// --- repro round-trip -------------------------------------------------------

TEST(ReproTest, SerializeParseRoundTrips) {
  Repro repro;
  repro.substrate = "mesos";
  repro.scenario_seed = 42;
  repro.policy = "TSF";
  repro.injected_bug = "leak_task_on_crash";
  repro.violation = "[task_survived_crash] t=9.87 task 5 still live";
  FaultPlanShape shape;
  shape.num_machines = 3;
  shape.num_frameworks = 2;
  repro.plan = RandomFaultPlan(shape, 9);
  Repro parsed;
  std::string error;
  ASSERT_TRUE(ParseRepro(SerializeRepro(repro), &parsed, &error)) << error;
  EXPECT_EQ(parsed, repro);
}

TEST(ReproTest, DesReproRoundTripsWithEmptyViolation) {
  Repro repro;
  repro.substrate = "des";
  repro.scenario_seed = 3;
  repro.policy = "CDRF";
  FaultPlanShape shape;
  shape.num_machines = 2;
  repro.plan = RandomFaultPlan(shape, 4);
  Repro parsed;
  std::string error;
  ASSERT_TRUE(ParseRepro(SerializeRepro(repro), &parsed, &error)) << error;
  EXPECT_EQ(parsed, repro);
}

// --- scenario generators ----------------------------------------------------

TEST(ScenarioTest, RandomScenariosAreSeedDeterministic) {
  const DesScenario a = RandomDesScenario(11);
  const DesScenario b = RandomDesScenario(11);
  EXPECT_EQ(a.plan, b.plan);
  EXPECT_EQ(a.workload.jobs.size(), b.workload.jobs.size());
  EXPECT_EQ(a.workload.cluster.num_machines(),
            b.workload.cluster.num_machines());
  const ScenarioReport ra =
      RunDesScenario(a.workload, OnlinePolicy::Tsf(), a.plan);
  const ScenarioReport rb =
      RunDesScenario(b.workload, OnlinePolicy::Tsf(), b.plan);
  EXPECT_EQ(ra.stream_hash, rb.stream_hash);
  EXPECT_TRUE(ra.ok()) << ToString(ra.violations.front());
}

TEST(ScenarioTest, MesosScenarioRunsCleanAndDeterministic) {
  const MesosScenario scenario = RandomMesosScenario(5);
  const ScenarioReport a = RunMesosScenario(scenario);
  const ScenarioReport b = RunMesosScenario(scenario);
  EXPECT_EQ(a.stream_hash, b.stream_hash);
  EXPECT_TRUE(a.ok()) << ToString(a.violations.front());
  EXPECT_FALSE(a.stream.empty());
}

// A framework whose offer is dropped or rescinded in the last allocation
// cycle must be offered again even if no later event re-runs the
// allocator. In seed 24, f1 re-registers at t=16.80 with two drops pending,
// and the cycles at 16.80 and 17.32 each drop one offer; no other event
// follows while f1 still has all 18 tasks to launch. Blind seeds 280, 348
// and 378 lose a framework's last offer the same way under their own plans.
TEST(ScenarioTest, MesosReoffersAfterLostOffers) {
  MesosScenario starved = RandomMesosScenario(24);
  starved.plan.events = {
      {6.6998593494609313, FaultKind::kFrameworkDisconnect, 1, 0.0},
      {8.7553454627239233, FaultKind::kOfferDrop, 1, 2.0},
      {16.802167052314175, FaultKind::kFrameworkReregister, 1, 0.0},
  };
  const std::vector<MesosScenario> scenarios = {
      starved, RandomMesosScenario(280), RandomMesosScenario(348),
      RandomMesosScenario(378)};
  for (const MesosScenario& scenario : scenarios) {
    const ScenarioReport report = RunMesosScenario(scenario);
    EXPECT_TRUE(report.ok()) << ToString(report.violations.front());
    std::vector<long> finished(scenario.frameworks.size(), 0);
    for (const StreamEvent& event : report.stream)
      if (event.kind == Kind::kFinish) ++finished[event.user];
    for (std::size_t f = 0; f < finished.size(); ++f)
      EXPECT_EQ(finished[f], scenario.frameworks[f].num_tasks)
          << "framework " << f;
  }
}

TEST(ScenarioTest, AllOnlinePoliciesHasCanonicalOrder) {
  const std::vector<OnlinePolicy> policies = AllOnlinePolicies();
  ASSERT_EQ(policies.size(), 6u);
  EXPECT_EQ(policies.front().name, "FIFO");
  EXPECT_EQ(policies.back().name, "TSF");
}

}  // namespace
}  // namespace tsf::chaos
