#include "chaos/repro.h"

#include <sstream>

#include "chaos/scenario.h"
#include "util/check.h"

namespace tsf::chaos {
namespace {

constexpr const char* kHeader = "tsf-chaos-repro v1";

bool IsDesSubstrate(const std::string& substrate) {
  return substrate == "des" || substrate == "des-uniform";
}

mesos::InjectedBug BugFromString(const std::string& name) {
  if (name == "none") return mesos::InjectedBug::kNone;
  if (name == "leak_task_on_crash")
    return mesos::InjectedBug::kLeakTaskOnCrash;
  TSF_CHECK(false) << "unknown injected bug '" << name << "'";
  return mesos::InjectedBug::kNone;
}

// Scoped arm/disarm so a replay cannot leave the bug switch set.
class ScopedInjectedBug {
 public:
  explicit ScopedInjectedBug(mesos::InjectedBug bug) {
    mesos::SetInjectedBugForTesting(bug);
  }
  ~ScopedInjectedBug() {
    mesos::SetInjectedBugForTesting(mesos::InjectedBug::kNone);
  }
  ScopedInjectedBug(const ScopedInjectedBug&) = delete;
  ScopedInjectedBug& operator=(const ScopedInjectedBug&) = delete;
};

}  // namespace

std::string SerializeRepro(const Repro& repro) {
  TSF_CHECK(IsDesSubstrate(repro.substrate) || repro.substrate == "mesos")
      << "unknown substrate '" << repro.substrate << "'";
  std::ostringstream out;
  out << kHeader << "\n";
  out << "substrate " << repro.substrate << "\n";
  out << "seed " << repro.scenario_seed << "\n";
  out << "policy " << repro.policy << "\n";
  out << "bug " << repro.injected_bug << "\n";
  if (!repro.violation.empty()) out << "violation " << repro.violation << "\n";
  out << SerializeFaultPlan(repro.plan);
  return out.str();
}

Repro ParseRepro(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  TSF_CHECK(std::getline(in, line) && line == kHeader)
      << "not a chaos repro file (expected '" << kHeader << "')";
  Repro repro;
  std::string plan_text;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string head;
    fields >> head;
    if (head.empty()) continue;
    if (head == "substrate") {
      fields >> repro.substrate;
    } else if (head == "seed") {
      fields >> repro.scenario_seed;
    } else if (head == "policy") {
      fields >> repro.policy;
    } else if (head == "bug") {
      fields >> repro.injected_bug;
    } else if (head == "violation") {
      // The remainder of the line, spaces included.
      std::getline(fields >> std::ws, repro.violation);
    } else if (head == "fault") {
      plan_text += line;
      plan_text += "\n";
    } else {
      TSF_CHECK(false) << "unknown repro field '" << head << "'";
    }
  }
  TSF_CHECK(IsDesSubstrate(repro.substrate) || repro.substrate == "mesos")
      << "repro missing/invalid substrate";
  repro.plan = ParseFaultPlan(plan_text);
  return repro;
}

ScenarioReport ReplayReproReport(const Repro& repro) {
  const ScopedInjectedBug armed(BugFromString(repro.injected_bug));
  if (IsDesSubstrate(repro.substrate)) {
    const Workload workload =
        repro.substrate == "des-uniform"
            ? RandomUniformChaosWorkload(repro.scenario_seed)
            : RandomChaosWorkload(repro.scenario_seed);
    for (const OnlinePolicy& policy : AllOnlinePolicies())
      if (policy.name == repro.policy)
        return RunDesScenario(workload, policy, repro.plan);
    TSF_CHECK(false) << "unknown policy '" << repro.policy << "'";
    return {};
  }
  TSF_CHECK_EQ(repro.substrate, "mesos");
  MesosScenario scenario = RandomMesosScenario(repro.scenario_seed);
  scenario.plan = repro.plan;
  return RunMesosScenario(scenario);
}

std::vector<Violation> ReplayRepro(const Repro& repro) {
  return ReplayReproReport(repro).violations;
}

}  // namespace tsf::chaos
