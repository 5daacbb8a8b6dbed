#include "chaos/repro.h"

#include <sstream>

#include "chaos/scenario.h"
#include "util/check.h"
#include "util/text.h"

namespace tsf::chaos {
namespace {

constexpr const char* kHeader = "tsf-chaos-repro v1";

bool IsDesSubstrate(const std::string& substrate) {
  return substrate == "des" || substrate == "des-uniform";
}

bool BugFromString(const std::string& name, mesos::InjectedBug* bug) {
  if (name == "none") {
    *bug = mesos::InjectedBug::kNone;
  } else if (name == "leak_task_on_crash") {
    *bug = mesos::InjectedBug::kLeakTaskOnCrash;
  } else {
    return false;
  }
  return true;
}

bool IsOnlinePolicy(const std::string& name) {
  for (const OnlinePolicy& policy : AllOnlinePolicies())
    if (policy.name == name) return true;
  return false;
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

bool ParseRepro(const std::string& text, Repro* repro, std::string* error) {
  *repro = Repro{};
  std::istringstream in(text);
  std::string line;
  std::size_t line_number = 1;
  const auto fail = [&](const std::string& message) {
    *error = "line " + std::to_string(line_number) + ": " + message;
    return false;
  };
  if (!std::getline(in, line) || line != kHeader)
    return fail(std::string("not a chaos repro file (expected '") + kHeader +
                "')");
  while (std::getline(in, line)) {
    ++line_number;
    std::istringstream fields(line);
    std::string head, value;
    fields >> head;
    if (head.empty() || head == "fault") continue;  // faults: ParseFaultPlan
    if (head == "violation") {
      // The remainder of the line, spaces included.
      std::getline(fields >> std::ws, repro->violation);
      continue;
    }
    fields >> value;
    if (head == "substrate") {
      repro->substrate = value;
      if (!IsDesSubstrate(value) && value != "mesos")
        return fail("unknown substrate '" + value + "'");
    } else if (head == "seed") {
      if (!ParseUint64(value, &repro->scenario_seed))
        return fail("bad seed '" + value + "'");
    } else if (head == "policy") {
      repro->policy = value;
    } else if (head == "bug") {
      mesos::InjectedBug bug = mesos::InjectedBug::kNone;
      if (!BugFromString(value, &bug))
        return fail("unknown injected bug '" + value + "'");
      repro->injected_bug = value;
    } else {
      return fail("unknown repro field '" + head + "'");
    }
  }
  if (repro->substrate.empty()) return fail("repro has no substrate line");
  if (IsDesSubstrate(repro->substrate) && !IsOnlinePolicy(repro->policy))
    return fail("unknown policy '" + repro->policy + "'");
  return ParseFaultPlan(text, &repro->plan, error);
}

ScenarioReport ReplayReproReport(const Repro& repro) {
  mesos::InjectedBug bug = mesos::InjectedBug::kNone;
  TSF_CHECK(BugFromString(repro.injected_bug, &bug))
      << "unknown injected bug '" << repro.injected_bug << "'";
  const ScopedInjectedBug armed(bug);
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
