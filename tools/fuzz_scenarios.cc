// Randomized chaos fuzzer over the online stack (DESIGN.md §9, §13).
//
// Two modes share one binary:
//
// Blind (default): runs seeded (workload × policy × FaultPlan) scenarios on
// both substrates — the DES with all six online policies and the Mesos-like
// offer loop — with fault injection enabled and every invariant checker
// armed. On a violation the failing plan is delta-debugged (chaos/shrink.h)
// down to a 1-minimal event sequence and written as a repro file replayable
// by scenario_replay_test.
//
// Guided (--guided): feedback-driven scenario search (chaos/search.h). One
// base scenario per lane (--first_seed) is mutated at FaultPlan-atom
// granularity; runs that light new checker branches, new fault
// interleavings, or larger fairness gaps are kept in a corpus that seeds
// future runs (--corpus_dir to load, --corpus_out to write). The loop is
// seed-deterministic: same --first_seed/--search_seed and corpus give
// identical execution sequences and corpus hashes.
//
//   tools/fuzz_scenarios --seeds=256 --repro_dir=out/repros
//   tools/fuzz_scenarios --smoke                  # CI lane: 64 seeds
//   tools/fuzz_scenarios --inject_bug=leak_task_on_crash --repro_dir=out
//   tools/fuzz_scenarios --guided --corpus_dir=tests/corpus --max_execs=96
//   tools/fuzz_scenarios --guided --corpus_out=tests/corpus  # regenerate
//
// Flag interaction: --smoke caps --seeds at 64 (blind) and --max_execs at
// 96 (guided); an explicit larger value is clamped with a warning so a CI
// lane cannot silently run the full campaign. With --inject_bug the exit
// code inverts into a harness self-test: the run fails unless the planted
// bug is caught, shrunk to a small plan, and its repro replays
// deterministically (guided mode must catch it within --max_execs).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/repro.h"
#include "chaos/scenario.h"
#include "chaos/search.h"
#include "chaos/shrink.h"
#include "util/check.h"
#include "util/flags.h"

namespace {

using tsf::chaos::BlindSweepResult;
using tsf::chaos::ChaosCoverage;
using tsf::chaos::CorpusEntry;
using tsf::chaos::FaultPlan;
using tsf::chaos::Repro;
using tsf::chaos::ScenarioReport;
using tsf::chaos::SearchOptions;
using tsf::chaos::SearchResult;
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

// Loads every corpus_*.txt of `dir` in sorted filename order (the search's
// determinism contract needs a stable load order).
std::vector<Repro> LoadCorpus(const std::string& dir) {
  std::vector<Repro> corpus;
  if (dir.empty() || !std::filesystem::is_directory(dir)) return corpus;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("corpus_", 0) == 0 && name.size() > 4 &&
        name.substr(name.size() - 4) == ".txt")
      paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const std::filesystem::path& path : paths) {
    std::ifstream in(path);
    TSF_CHECK(in.good()) << "cannot read " << path.string();
    std::ostringstream text;
    text << in.rdbuf();
    corpus.push_back(tsf::chaos::ParseRepro(text.str()));
  }
  return corpus;
}

// Writes the admitted corpus as corpus_<substrate>_<planhash>.txt files —
// content-addressed names, so regenerating an unchanged corpus is a no-op
// under git.
void WriteCorpus(const std::string& dir,
                 const std::vector<CorpusEntry>& corpus) {
  if (dir.empty()) return;
  std::filesystem::create_directories(dir);
  std::size_t written = 0;
  for (const CorpusEntry& entry : corpus) {
    char hash[32];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(entry.plan_hash));
    const std::string path =
        dir + "/corpus_" + entry.repro.substrate + "_" + hash + ".txt";
    std::ofstream out(path);
    TSF_CHECK(out.good()) << "cannot write " << path;
    out << tsf::chaos::SerializeRepro(entry.repro);
    ++written;
  }
  std::printf("corpus written: %zu entries -> %s\n", written, dir.c_str());
}

int RunGuided(const tsf::Flags& flags, const std::string& substrate,
              const std::string& repro_dir,
              const std::string& inject_bug, std::uint64_t first_seed) {
  const bool bug_armed = inject_bug != "none";
  SearchOptions options;
  // The injectable bug lives in the Mesos master, so the self-test lane
  // searches mesos only (matching the blind mode's lane skip).
  options.substrate = bug_armed ? "mesos" : substrate;
  options.policy = flags.GetString("policy", "TSF");
  options.scenario_seed = first_seed;
  options.search_seed =
      static_cast<std::uint64_t>(flags.GetInt("search_seed", 1));
  options.heuristic = flags.GetString("heuristic", "score");
  options.max_execs =
      static_cast<std::size_t>(flags.GetInt("max_execs", 256));
  if (flags.GetBool("smoke", false) && options.max_execs > 96) {
    if (flags.Has("max_execs"))
      std::printf("warning: --smoke caps --max_execs at 96 (got %zu)\n",
                  options.max_execs);
    options.max_execs = 96;
  }
  options.corpus = LoadCorpus(flags.GetString("corpus_dir", ""));

  if (bug_armed)
    tsf::mesos::SetInjectedBugForTesting(
        tsf::mesos::InjectedBug::kLeakTaskOnCrash);
  const SearchResult result = tsf::chaos::RunGuidedSearch(options);
  if (bug_armed)
    tsf::mesos::SetInjectedBugForTesting(tsf::mesos::InjectedBug::kNone);

  std::printf(
      "guided search: %zu execs, %zu corpus entries (%zu seeded), "
      "coverage %zu/%zu branches\n",
      result.executions, result.corpus.size(), options.corpus.size(),
      result.coverage.Count(), ChaosCoverage::kBits);
  std::printf(
      "  heuristic=%s dup_plans=%zu inapplicable=%zu corpus_hash=%016llx "
      "frontier_hash=%016llx\n",
      options.heuristic.c_str(), result.duplicate_plans,
      result.inapplicable_mutations,
      static_cast<unsigned long long>(result.corpus_hash),
      static_cast<unsigned long long>(result.frontier_hash));

  WriteCorpus(flags.GetString("corpus_out", ""), result.corpus);

  std::vector<Failure> failures;
  for (const Repro& violating : result.violations) {
    std::printf("FAIL %s seed=%llu policy=%s: %s\n",
                violating.substrate.c_str(),
                static_cast<unsigned long long>(violating.scenario_seed),
                violating.policy.c_str(), violating.violation.c_str());
    // ReplayRepro re-arms the repro's own injected bug, so the shrink
    // predicate is self-contained.
    Repro seed_repro = violating;
    seed_repro.injected_bug = inject_bug;
    failures.push_back(Shrink(
        seed_repro, violating.plan,
        [&](const FaultPlan& candidate) {
          Repro attempt = seed_repro;
          attempt.plan = candidate;
          return !tsf::chaos::ReplayRepro(attempt).empty();
        },
        violating.violation));
    WriteRepro(repro_dir, failures.back(), failures.size());
  }
  for (const Failure& failure : failures)
    std::printf("  %s seed=%llu policy=%s: shrunk %zu -> %zu events "
                "(%zu replays): %s\n",
                failure.repro.substrate.c_str(),
                static_cast<unsigned long long>(failure.repro.scenario_seed),
                failure.repro.policy.c_str(), failure.original_events,
                failure.repro.plan.events.size(), failure.predicate_calls,
                failure.repro.violation.c_str());

  if (!bug_armed) return failures.empty() ? 0 : 1;
  if (failures.empty()) {
    std::printf("inject_bug=%s was NOT caught in %zu execs — guided search "
                "is blind\n",
                inject_bug.c_str(), result.executions);
    return 1;
  }
  const std::vector<Violation> replayed =
      tsf::chaos::ReplayRepro(failures.front().repro);
  if (replayed.empty()) {
    std::printf("shrunk repro does not replay — shrinker broke the repro\n");
    return 1;
  }
  std::printf("guided self-test OK: bug caught at exec %zu, shrunk to %zu "
              "event(s), repro replays (%s)\n",
              result.executions_to_violation,
              failures.front().repro.plan.events.size(),
              tsf::chaos::ToString(replayed.front()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tsf::Flags flags(
      argc, argv,
      {{"seeds", "number of scenario seeds per substrate (default 256)"},
       {"first_seed", "first seed (default 1)"},
       {"smoke", "CI smoke lane: cap seeds at 64 and max_execs at 96"},
       {"substrate", "des | des-uniform | mesos | both (default both)"},
       {"repro_dir", "directory for repro files of failing scenarios"},
       {"inject_bug",
        "none | leak_task_on_crash — plant a bug and require the harness "
        "to catch it (harness self-test)"},
       {"guided", "feedback-driven search instead of the blind sweep"},
       {"corpus_dir", "guided: committed corpus to seed the search from"},
       {"corpus_out", "guided: directory to write the grown corpus to"},
       {"heuristic", "guided: bfs | dfs | score frontier order (default "
                     "score)"},
       {"max_execs", "guided: scenario-run budget (default 256)"},
       {"search_seed", "guided: mutation stream seed (default 1)"},
       {"policy", "guided: DES-lane online policy (default TSF)"}});
  std::size_t seeds = static_cast<std::size_t>(flags.GetInt("seeds", 256));
  const auto first_seed =
      static_cast<std::uint64_t>(flags.GetInt("first_seed", 1));
  if (flags.GetBool("smoke", false) && seeds > 64) {
    // Warn on an explicit larger ask; clamping it silently made CI lanes
    // look like full campaigns.
    if (flags.Has("seeds"))
      std::printf("warning: --smoke caps --seeds at 64 (got %zu)\n", seeds);
    seeds = 64;
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

  if (flags.GetBool("guided", false))
    return RunGuided(flags, substrate, repro_dir, inject_bug, first_seed);

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
