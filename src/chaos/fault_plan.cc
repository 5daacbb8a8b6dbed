#include "chaos/fault_plan.h"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "util/check.h"
#include "util/rng.h"
#include "util/text.h"

namespace tsf::chaos {
namespace {

constexpr struct {
  FaultKind kind;
  const char* token;
} kKindTokens[] = {
    {FaultKind::kMachineCrash, "crash"},
    {FaultKind::kMachineRestart, "restart"},
    {FaultKind::kTaskFailure, "task_failure"},
    {FaultKind::kOfferDrop, "offer_drop"},
    {FaultKind::kOfferRescind, "offer_rescind"},
    {FaultKind::kDeclineTimeout, "decline_timeout"},
    {FaultKind::kFrameworkDisconnect, "disconnect"},
    {FaultKind::kFrameworkReregister, "reregister"},
};

bool IsMachineKind(FaultKind kind) { return IsMachineFault(kind); }

// The value of a "<key>=<value>" field; false if the key does not match.
bool FieldValue(const std::string& field, std::string_view key,
                std::string_view* value) {
  if (field.size() <= key.size() || field.compare(0, key.size(), key) != 0 ||
      field[key.size()] != '=')
    return false;
  *value = std::string_view(field).substr(key.size() + 1);
  return true;
}

}  // namespace

std::string ToString(FaultKind kind) {
  for (const auto& entry : kKindTokens)
    if (entry.kind == kind) return entry.token;
  TSF_CHECK(false) << "unknown FaultKind " << static_cast<int>(kind);
  return {};
}

bool FaultKindFromString(const std::string& token, FaultKind* kind) {
  for (const auto& entry : kKindTokens)
    if (token == entry.token) {
      *kind = entry.kind;
      return true;
    }
  return false;
}

bool IsMachineFault(FaultKind kind) {
  return kind == FaultKind::kMachineCrash ||
         kind == FaultKind::kMachineRestart ||
         kind == FaultKind::kTaskFailure;
}

FaultPlan RandomFaultPlan(const FaultPlanShape& shape, std::uint64_t seed) {
  TSF_CHECK_GT(shape.num_machines, 0u);
  TSF_CHECK_LT(shape.earliest, shape.horizon);
  TSF_CHECK_GT(shape.mean_outage, 0.0);
  Rng rng(seed);
  FaultPlan plan;

  // Per-target earliest time the next outage may start (windows of one
  // target never overlap), and every generated machine-outage window, so a
  // new crash can be rejected if it would take the whole cluster down.
  std::vector<double> machine_free(shape.num_machines, shape.earliest);
  std::vector<double> framework_free(shape.num_frameworks, shape.earliest);
  struct Outage {
    double start = 0.0, end = 0.0;
    std::size_t machine = 0;
  };
  std::vector<Outage> outages;

  const auto atoms = static_cast<std::size_t>(
      rng.Int(1, static_cast<std::int64_t>(std::max<std::size_t>(
                     shape.max_atoms, 1))));
  for (std::size_t a = 0; a < atoms; ++a) {
    const double pick = rng.Uniform();
    const bool mesos = shape.num_frameworks > 0;
    if (!mesos ? pick < 0.55 : pick < 0.30) {
      // Crash + restart pair.
      const auto m = static_cast<std::size_t>(rng.Below(shape.num_machines));
      if (machine_free[m] >= shape.horizon) continue;
      const double start = rng.Uniform(machine_free[m], shape.horizon);
      const double duration = rng.Uniform(0.5, 2.0 * shape.mean_outage);
      const double end = start + duration;
      // Reject if at any point of [start, end] every other machine is also
      // down — a whole-cluster blackout stalls the run without testing
      // anything the partial outages don't.
      std::size_t concurrent = 0;
      for (const Outage& o : outages)
        if (o.machine != m && o.start < end && start < o.end) ++concurrent;
      if (concurrent + 1 >= shape.num_machines) continue;
      plan.events.push_back({start, FaultKind::kMachineCrash, m, 0.0});
      plan.events.push_back({end, FaultKind::kMachineRestart, m, 0.0});
      outages.push_back({start, end, m});
      machine_free[m] = end + 0.25;
    } else if (!mesos || pick < 0.50) {
      // Single task failure (a no-op if the machine is down or idle).
      const auto m = static_cast<std::size_t>(rng.Below(shape.num_machines));
      plan.events.push_back({rng.Uniform(shape.earliest, shape.horizon),
                             FaultKind::kTaskFailure, m, 0.0});
    } else if (pick < 0.70) {
      // Disconnect + re-register pair.
      const auto f = static_cast<std::size_t>(rng.Below(shape.num_frameworks));
      if (framework_free[f] >= shape.horizon) continue;
      const double start = rng.Uniform(framework_free[f], shape.horizon);
      const double end = start + rng.Uniform(0.5, 2.0 * shape.mean_outage);
      plan.events.push_back({start, FaultKind::kFrameworkDisconnect, f, 0.0});
      plan.events.push_back({end, FaultKind::kFrameworkReregister, f, 0.0});
      framework_free[f] = end + 0.25;
    } else {
      // Single offer-level fault.
      const auto f = static_cast<std::size_t>(rng.Below(shape.num_frameworks));
      const double t = rng.Uniform(shape.earliest, shape.horizon);
      if (pick < 0.80) {
        plan.events.push_back({t, FaultKind::kOfferDrop, f,
                               static_cast<double>(rng.Int(1, 3))});
      } else if (pick < 0.90) {
        plan.events.push_back({t, FaultKind::kOfferRescind, f, 0.0});
      } else {
        plan.events.push_back({t, FaultKind::kDeclineTimeout, f,
                               rng.Uniform(0.5, shape.mean_outage)});
      }
    }
  }

  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultSpec& a, const FaultSpec& b) {
                     return a.time < b.time;
                   });
  TSF_CHECK(ValidateFaultPlan(plan, shape.num_machines, shape.num_frameworks)
                .empty());
  return plan;
}

std::string ValidateFaultPlan(const FaultPlan& plan, std::size_t num_machines,
                              std::size_t num_frameworks) {
  std::ostringstream error;
  std::vector<bool> down(num_machines, false);
  std::vector<bool> disconnected(num_frameworks, false);
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultSpec& fault = plan.events[i];
    if (i > 0 && fault.time < plan.events[i - 1].time) {
      error << "event " << i << ": times not sorted";
      return error.str();
    }
    if (IsMachineKind(fault.kind)) {
      if (fault.target >= num_machines) {
        error << "event " << i << ": machine target " << fault.target
              << " out of range";
        return error.str();
      }
    } else {
      if (fault.target >= num_frameworks) {
        error << "event " << i << ": framework target " << fault.target
              << " out of range (or Mesos-only fault in a DES plan)";
        return error.str();
      }
    }
    switch (fault.kind) {
      case FaultKind::kMachineCrash:
        if (down[fault.target]) {
          error << "event " << i << ": crash of already-down machine "
                << fault.target;
          return error.str();
        }
        down[fault.target] = true;
        break;
      case FaultKind::kMachineRestart:
        if (!down[fault.target]) {
          error << "event " << i << ": restart of up machine " << fault.target;
          return error.str();
        }
        down[fault.target] = false;
        break;
      case FaultKind::kFrameworkDisconnect:
        if (disconnected[fault.target]) {
          error << "event " << i << ": disconnect of disconnected framework "
                << fault.target;
          return error.str();
        }
        disconnected[fault.target] = true;
        break;
      case FaultKind::kFrameworkReregister:
        if (!disconnected[fault.target]) {
          error << "event " << i << ": re-register of connected framework "
                << fault.target;
          return error.str();
        }
        disconnected[fault.target] = false;
        break;
      case FaultKind::kDeclineTimeout:
        if (fault.param <= 0.0) {
          error << "event " << i << ": decline-timeout window must be > 0";
          return error.str();
        }
        break;
      case FaultKind::kTaskFailure:
      case FaultKind::kOfferDrop:
      case FaultKind::kOfferRescind:
        break;
    }
  }
  for (std::size_t m = 0; m < num_machines; ++m)
    if (down[m]) {
      error << "machine " << m << " is crashed and never restarted";
      return error.str();
    }
  for (std::size_t f = 0; f < num_frameworks; ++f)
    if (disconnected[f]) {
      error << "framework " << f << " is disconnected and never re-registers";
      return error.str();
    }
  return {};
}

std::string SerializeFaultPlan(const FaultPlan& plan) {
  std::ostringstream out;
  for (const FaultSpec& fault : plan.events)
    out << "fault " << ToString(fault.kind) << " t=" << FormatDouble(fault.time)
        << " target=" << fault.target << " param=" << FormatDouble(fault.param)
        << "\n";
  return out.str();
}

bool ParseFaultPlan(const std::string& text, FaultPlan* plan,
                    std::string* error) {
  *plan = FaultPlan{};
  std::istringstream in(text);
  std::string line;
  for (std::size_t line_number = 1; std::getline(in, line); ++line_number) {
    std::istringstream fields(line);
    std::string head;
    fields >> head;
    if (head != "fault") continue;
    const auto fail = [&](const std::string& message) {
      *error = "line " + std::to_string(line_number) + ": " + message;
      return false;
    };
    std::string kind, time_field, target_field, param_field, extra;
    fields >> kind >> time_field >> target_field >> param_field;
    std::string_view time, target, param;
    if (!FieldValue(time_field, "t", &time) ||
        !FieldValue(target_field, "target", &target) ||
        !FieldValue(param_field, "param", &param) || fields >> extra)
      return fail("malformed fault line '" + line +
                  "' (want fault <kind> t=<time> target=<n> param=<p>)");
    FaultSpec fault;
    std::uint64_t target_index = 0;
    if (!FaultKindFromString(kind, &fault.kind))
      return fail("unknown fault kind '" + kind + "'");
    if (!ParseFiniteDouble(time, &fault.time))
      return fail("bad time '" + std::string(time) + "'");
    if (!ParseUint64(target, &target_index))
      return fail("bad target '" + std::string(target) + "'");
    if (!ParseFiniteDouble(param, &fault.param))
      return fail("bad param '" + std::string(param) + "'");
    fault.target = static_cast<std::size_t>(target_index);
    plan->events.push_back(fault);
  }
  return true;
}

std::vector<SimFault> CompileForDes(const FaultPlan& plan) {
  std::vector<SimFault> faults;
  faults.reserve(plan.events.size());
  for (const FaultSpec& fault : plan.events) {
    TSF_CHECK(IsMachineKind(fault.kind))
        << "Mesos-only fault '" << ToString(fault.kind) << "' in a DES plan";
    SimFault compiled;
    compiled.time = fault.time;
    compiled.machine = fault.target;
    switch (fault.kind) {
      case FaultKind::kMachineCrash:
        compiled.kind = SimFault::Kind::kMachineCrash;
        break;
      case FaultKind::kMachineRestart:
        compiled.kind = SimFault::Kind::kMachineRestart;
        break;
      default:
        compiled.kind = SimFault::Kind::kTaskFailure;
        break;
    }
    faults.push_back(compiled);
  }
  return faults;
}

std::vector<mesos::Fault> CompileForMesos(const FaultPlan& plan) {
  std::vector<mesos::Fault> faults;
  faults.reserve(plan.events.size());
  for (const FaultSpec& fault : plan.events) {
    mesos::Fault compiled;
    compiled.time = fault.time;
    compiled.target = fault.target;
    compiled.param = fault.param;
    switch (fault.kind) {
      case FaultKind::kMachineCrash:
        compiled.kind = mesos::Fault::Kind::kSlaveCrash;
        break;
      case FaultKind::kMachineRestart:
        compiled.kind = mesos::Fault::Kind::kSlaveRestart;
        break;
      case FaultKind::kTaskFailure:
        compiled.kind = mesos::Fault::Kind::kTaskFailure;
        break;
      case FaultKind::kOfferDrop:
        compiled.kind = mesos::Fault::Kind::kOfferDrop;
        break;
      case FaultKind::kOfferRescind:
        compiled.kind = mesos::Fault::Kind::kOfferRescind;
        break;
      case FaultKind::kDeclineTimeout:
        compiled.kind = mesos::Fault::Kind::kDeclineTimeout;
        break;
      case FaultKind::kFrameworkDisconnect:
        compiled.kind = mesos::Fault::Kind::kFrameworkDisconnect;
        break;
      case FaultKind::kFrameworkReregister:
        compiled.kind = mesos::Fault::Kind::kFrameworkReregister;
        break;
    }
    faults.push_back(compiled);
  }
  return faults;
}

}  // namespace tsf::chaos
