#include "core/offline/weights.h"

#include "util/check.h"

namespace tsf {

std::vector<double> Theorem1Weights(const CompiledProblem& problem,
                                    const DedicatedPools& pools) {
  TSF_CHECK_EQ(pools.fraction.size(), problem.num_users);
  std::vector<double> weights(problem.num_users);
  for (UserId i = 0; i < problem.num_users; ++i) {
    const double k = DedicatedPoolTasks(problem, i, pools.fraction[i]);
    TSF_CHECK_GT(k, 0.0) << "Thm. 1 weights require a non-empty pool (user "
                         << i << ")";
    weights[i] = k / problem.h[i];
  }
  return weights;
}

CompiledProblem WithWeights(const CompiledProblem& problem,
                            std::vector<double> weights) {
  TSF_CHECK_EQ(weights.size(), problem.num_users);
  for (const double w : weights) TSF_CHECK_GT(w, 0.0);
  CompiledProblem weighted = problem;
  weighted.weight = std::move(weights);
  return weighted;
}

FillingResult SolvePerComponent(const CompiledProblem& problem,
                                OfflinePolicy policy) {
  const ConstraintComponents components = FindComponents(problem);

  FillingResult result;
  result.allocation = Allocation(problem.num_users, problem.num_machines);
  result.shares.assign(problem.num_users, 0.0);
  result.freeze_round.assign(problem.num_users, 0);

  for (std::size_t c = 0; c < components.count; ++c) {
    // Machines and users of this component, with index remapping.
    std::vector<MachineId> machines;
    std::vector<std::size_t> machine_index(problem.num_machines, SIZE_MAX);
    for (MachineId m = 0; m < problem.num_machines; ++m) {
      if (components.machine_component[m] != c) continue;
      machine_index[m] = machines.size();
      machines.push_back(m);
    }
    std::vector<UserId> users;
    for (UserId i = 0; i < problem.num_users; ++i)
      if (components.user_component[i] == c) users.push_back(i);
    if (users.empty()) continue;  // machines no job can use stay idle

    CompiledProblem sub;
    sub.num_users = users.size();
    sub.num_machines = machines.size();
    sub.num_resources = problem.num_resources;
    for (const MachineId m : machines)
      sub.machine_capacity.push_back(problem.machine_capacity[m]);
    for (const UserId i : users) {
      sub.demand.push_back(problem.demand[i]);
      sub.weight.push_back(problem.weight[i]);
      DynamicBitset eligible(machines.size());
      problem.eligible[i].ForEachSet([&](std::size_t m) {
        TSF_DCHECK(machine_index[m] != SIZE_MAX)
            << "eligibility crosses component boundary";
        eligible.Set(machine_index[m]);
      });
      sub.eligible.push_back(std::move(eligible));
      // h and g are defined against the WHOLE datacenter; copy the global
      // values so shares keep their paper meaning inside the component.
      sub.h.push_back(problem.h[i]);
      sub.g.push_back(problem.g[i]);
    }

    const FillingResult sub_result = SolveOffline(policy, sub, 0);
    for (std::size_t iu = 0; iu < users.size(); ++iu) {
      for (std::size_t im = 0; im < machines.size(); ++im)
        result.allocation.set_tasks(users[iu], machines[im],
                                    sub_result.allocation.tasks(iu, im));
      result.shares[users[iu]] = sub_result.shares[iu];
      result.freeze_round[users[iu]] = sub_result.freeze_round[iu];
    }
  }
  return result;
}

}  // namespace tsf
