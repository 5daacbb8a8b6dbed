// Randomized chaos fuzzer over the online stack (DESIGN.md §9).
//
// Runs seeded (workload × policy × FaultPlan) scenarios on both substrates
// — the DES with all six online policies and the Mesos-like offer loop —
// with fault injection enabled and every invariant checker armed. On a
// violation the failing plan is delta-debugged (chaos/shrink.h) down to a
// 1-minimal event sequence and written as a repro file replayable by
// scenario_replay_test.
//
//   tools/fuzz_scenarios --seeds=256 --repro_dir=out/repros
//   tools/fuzz_scenarios --smoke                  # CI lane: 2048 seeds
//   tools/fuzz_scenarios --inject_bug=leak_task_on_crash --repro_dir=out
//
// Flag interaction: --smoke runs 2048 seeds; an explicit larger --seeds is
// clamped with a warning so a CI lane cannot silently run a longer
// campaign. With --inject_bug the exit code inverts into a harness
// self-test: the run fails unless the planted bug is caught, shrunk to a
// small plan, and its repro replays deterministically.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "chaos/repro.h"
#include "chaos/scenario.h"
#include "chaos/shrink.h"
#include "util/check.h"
#include "util/flags.h"

namespace {

// Seeds of the CI smoke lane. At 2048 the Mesos lane reaches seed 280, the
// first seed whose plan loses a framework's last offer, so the lane checks
// that the master offers it again.
constexpr std::size_t kSmokeSeeds = 2048;

using tsf::chaos::FaultPlan;
using tsf::chaos::Repro;
using tsf::chaos::ScenarioReport;
using tsf::chaos::ShrinkResult;
using tsf::chaos::Violation;

struct Failure {
  Repro repro;
  std::size_t original_events = 0;
  std::size_t predicate_calls = 0;
};

void WriteRepro(const std::string& repro_dir, const Failure& failure,
                std::size_t index) {
  if (repro_dir.empty()) return;
  const std::string path = repro_dir + "/repro_" + failure.repro.substrate +
                           "_" + std::to_string(index) + ".txt";
  std::ofstream out(path);
  TSF_CHECK(out.good()) << "cannot write " << path;
  out << tsf::chaos::SerializeRepro(failure.repro);
  std::printf("  repro written: %s\n", path.c_str());
}

// Shrinks a failing plan and packages the repro. The predicate re-runs the
// full scenario per candidate, so shrinking is itself a determinism test:
// a flaky failure would not survive ddmin.
Failure Shrink(const Repro& seed_repro, const FaultPlan& failing_plan,
               const std::function<bool(const FaultPlan&)>& still_fails,
               const std::string& first_violation) {
  const ShrinkResult shrunk =
      tsf::chaos::ShrinkFaultPlan(failing_plan, still_fails);
  Failure failure;
  failure.repro = seed_repro;
  failure.repro.plan = shrunk.plan;
  failure.repro.violation = first_violation;
  failure.original_events = failing_plan.events.size();
  failure.predicate_calls = shrunk.predicate_calls;
  return failure;
}

}  // namespace

int main(int argc, char** argv) {
  tsf::Flags flags(
      argc, argv,
      {{"seeds", "number of scenario seeds per substrate (default 256, "
                 "2048 under --smoke)"},
       {"first_seed", "first seed (default 1)"},
       {"smoke", "CI smoke lane: 2048 seeds, and a larger --seeds is "
                 "capped at 2048"},
       {"substrate", "des | des-uniform | mesos | both (default both)"},
       {"repro_dir", "directory for repro files of failing scenarios"},
       {"inject_bug",
        "none | leak_task_on_crash — plant a bug and require the harness "
        "to catch it (harness self-test)"}});
  const bool smoke = flags.GetBool("smoke", false);
  std::size_t seeds = static_cast<std::size_t>(
      flags.GetInt("seeds", smoke ? std::int64_t{kSmokeSeeds} : 256));
  const auto first_seed =
      static_cast<std::uint64_t>(flags.GetInt("first_seed", 1));
  if (smoke && seeds > kSmokeSeeds) {
    // Warn on the explicit larger ask; clamping it silently made CI lanes
    // look like full campaigns.
    std::printf("warning: --smoke caps --seeds at %zu (got %zu)\n",
                kSmokeSeeds, seeds);
    seeds = kSmokeSeeds;
  }
  const std::string substrate = flags.GetString("substrate", "both");
  const std::string repro_dir = flags.GetString("repro_dir", "");
  const std::string inject_bug = flags.GetString("inject_bug", "none");
  const bool run_des = substrate == "both" || substrate == "des" ||
                       substrate == "des-uniform";
  const bool run_mesos = substrate == "both" || substrate == "mesos";
  TSF_CHECK(run_des || run_mesos) << "unknown substrate '" << substrate << "'";
  TSF_CHECK(inject_bug == "none" || inject_bug == "leak_task_on_crash")
      << "unknown injected bug '" << inject_bug << "'";

  const bool bug_armed = inject_bug != "none";
  if (bug_armed)
    tsf::mesos::SetInjectedBugForTesting(
        tsf::mesos::InjectedBug::kLeakTaskOnCrash);

  std::size_t scenarios = 0;
  std::vector<Failure> failures;

  for (std::uint64_t seed = first_seed; seed < first_seed + seeds; ++seed) {
    if (run_des && !bug_armed) {  // the injectable bug lives in the master
      // Two DES generators: the legacy all-distinct clusters and the
      // uniform clusters, whose machines share equivalence classes.
      const struct {
        const char* substrate;
        tsf::chaos::DesScenario scenario;
      } des_lanes[] = {
          {"des", tsf::chaos::RandomDesScenario(seed)},
          {"des-uniform", tsf::chaos::RandomUniformDesScenario(seed)},
      };
      for (const auto& lane : des_lanes) {
        if (substrate != "both" && substrate != lane.substrate) continue;
        for (const tsf::OnlinePolicy& policy :
             tsf::chaos::AllOnlinePolicies()) {
          ++scenarios;
          const ScenarioReport report = tsf::chaos::RunDesScenario(
              lane.scenario.workload, policy, lane.scenario.plan);
          if (report.ok()) continue;
          std::printf("FAIL %s seed=%llu policy=%s: %s\n", lane.substrate,
                      static_cast<unsigned long long>(seed),
                      policy.name.c_str(),
                      tsf::chaos::ToString(report.violations.front()).c_str());
          Repro repro;
          repro.substrate = lane.substrate;
          repro.scenario_seed = seed;
          repro.policy = policy.name;
          failures.push_back(Shrink(
              repro, lane.scenario.plan,
              [&](const FaultPlan& candidate) {
                return !tsf::chaos::RunDesScenario(lane.scenario.workload,
                                                   policy, candidate)
                            .ok();
              },
              tsf::chaos::ToString(report.violations.front())));
          WriteRepro(repro_dir, failures.back(), failures.size());
        }
      }
    }
    if (run_mesos) {
      ++scenarios;
      tsf::chaos::MesosScenario scenario =
          tsf::chaos::RandomMesosScenario(seed);
      const ScenarioReport report = tsf::chaos::RunMesosScenario(scenario);
      if (!report.ok()) {
        std::printf("FAIL mesos seed=%llu: %s\n",
                    static_cast<unsigned long long>(seed),
                    tsf::chaos::ToString(report.violations.front()).c_str());
        Repro repro;
        repro.substrate = "mesos";
        repro.scenario_seed = seed;
        repro.injected_bug = inject_bug;
        failures.push_back(Shrink(
            repro, scenario.plan,
            [&](const FaultPlan& candidate) {
              tsf::chaos::MesosScenario shrunk = scenario;
              shrunk.plan = candidate;
              return !tsf::chaos::RunMesosScenario(shrunk).ok();
            },
            tsf::chaos::ToString(report.violations.front())));
        WriteRepro(repro_dir, failures.back(), failures.size());
        if (bug_armed) break;  // one caught + shrunk repro is enough
      }
    }
  }

  if (bug_armed)
    tsf::mesos::SetInjectedBugForTesting(tsf::mesos::InjectedBug::kNone);

  std::printf("fuzz_scenarios: %zu scenarios, %zu failure(s)\n", scenarios,
              failures.size());
  for (const Failure& failure : failures)
    std::printf("  %s seed=%llu policy=%s: shrunk %zu -> %zu events "
                "(%zu replays): %s\n",
                failure.repro.substrate.c_str(),
                static_cast<unsigned long long>(failure.repro.scenario_seed),
                failure.repro.policy.c_str(), failure.original_events,
                failure.repro.plan.events.size(), failure.predicate_calls,
                failure.repro.violation.c_str());

  if (!bug_armed) return failures.empty() ? 0 : 1;

  // Harness self-test: the planted bug must have been caught, shrunk, and
  // its repro must replay to the same class of violation.
  if (failures.empty()) {
    std::printf("inject_bug=%s was NOT caught — harness is blind\n",
                inject_bug.c_str());
    return 1;
  }
  const std::vector<Violation> replayed =
      tsf::chaos::ReplayRepro(failures.front().repro);
  if (replayed.empty()) {
    std::printf("shrunk repro does not replay — shrinker broke the repro\n");
    return 1;
  }
  std::printf("harness self-test OK: bug caught, shrunk to %zu event(s), "
              "repro replays (%s)\n",
              failures.front().repro.plan.events.size(),
              tsf::chaos::ToString(replayed.front()).c_str());
  return 0;
}
