#include "core/offline/policies.h"

#include "util/check.h"

namespace tsf {

std::string ToString(OfflinePolicy policy) {
  switch (policy) {
    case OfflinePolicy::kTsf:
      return "TSF";
    case OfflinePolicy::kCdrf:
      return "CDRF";
    case OfflinePolicy::kDrfh:
      return "DRFH";
    case OfflinePolicy::kPerMachineDrf:
      return "PerMachineDRF";
    case OfflinePolicy::kCmmf:
      return "CMMF";
  }
  return "?";
}

std::vector<double> TsfDenominator(const CompiledProblem& problem) {
  std::vector<double> denominator(problem.num_users);
  for (UserId i = 0; i < problem.num_users; ++i)
    denominator[i] = problem.h[i] * problem.weight[i];
  return denominator;
}

std::vector<double> CdrfDenominator(const CompiledProblem& problem) {
  std::vector<double> denominator(problem.num_users);
  for (UserId i = 0; i < problem.num_users; ++i)
    denominator[i] = problem.g[i] * problem.weight[i];
  return denominator;
}

std::vector<double> DrfhDenominator(const CompiledProblem& problem) {
  std::vector<double> denominator(problem.num_users);
  for (UserId i = 0; i < problem.num_users; ++i) {
    const double dominant = problem.demand[i].MaxComponent();
    TSF_CHECK_GT(dominant, 0.0);
    // dominant share = n_i * dominant / w_i, so s_i = n_i / (w_i / dominant).
    denominator[i] = problem.weight[i] / dominant;
  }
  return denominator;
}

std::vector<double> CmmfDenominator(const CompiledProblem& problem,
                                    std::size_t resource) {
  TSF_CHECK_LT(resource, problem.num_resources);
  std::vector<double> denominator(problem.num_users);
  for (UserId i = 0; i < problem.num_users; ++i) {
    const double d = problem.demand[i][resource];
    TSF_CHECK_GT(d, 0.0) << "CMMF over resource " << resource
                         << " requires every user to demand it (user " << i << ")";
    denominator[i] = problem.weight[i] / d;
  }
  return denominator;
}

FillingResult SolveTsf(const CompiledProblem& problem) {
  return ProgressiveFilling(problem, TsfDenominator(problem));
}

FillingResult SolveCdrf(const CompiledProblem& problem) {
  return ProgressiveFilling(problem, CdrfDenominator(problem));
}

FillingResult SolveDrfh(const CompiledProblem& problem) {
  return ProgressiveFilling(problem, DrfhDenominator(problem));
}

FillingResult SolveCmmf(const CompiledProblem& problem, std::size_t resource) {
  return ProgressiveFilling(problem, CmmfDenominator(problem, resource));
}

FillingResult SolvePerMachineDrf(const CompiledProblem& problem) {
  FillingResult result;
  result.allocation = Allocation(problem.num_users, problem.num_machines);
  result.freeze_round.assign(problem.num_users, 1);

  for (MachineId m = 0; m < problem.num_machines; ++m) {
    // Users eligible on m.
    std::vector<UserId> users;
    for (UserId i = 0; i < problem.num_users; ++i)
      if (problem.eligible[i].Test(m)) users.push_back(i);
    if (users.empty()) continue;

    // Single-machine sub-problem; capacities/demands stay in datacenter-
    // normalized units (only ratios within the sub-problem matter).
    CompiledProblem sub;
    sub.num_users = users.size();
    sub.num_machines = 1;
    sub.num_resources = problem.num_resources;
    sub.machine_capacity = {problem.machine_capacity[m]};
    for (const UserId i : users) {
      sub.demand.push_back(problem.demand[i]);
      sub.weight.push_back(problem.weight[i]);
      DynamicBitset bits(1);
      bits.Set(0);
      sub.eligible.push_back(bits);
      const double tasks = problem.MonopolyTasksOn(i, m);
      sub.h.push_back(tasks);
      sub.g.push_back(tasks);
    }

    // DRF on machine m: dominant share relative to m's capacity, i.e.
    // s_i = n_im * max_r (d_ir / C_mr) / w_i.
    std::vector<double> denominator(users.size());
    for (std::size_t k = 0; k < users.size(); ++k) {
      double dominant = 0.0;
      for (std::size_t r = 0; r < problem.num_resources; ++r) {
        const double capacity = problem.machine_capacity[m][r];
        const double d = sub.demand[k][r];
        if (d > 0.0) {
          TSF_CHECK_GT(capacity, 0.0)
              << "user demands a resource machine " << m << " lacks";
          dominant = std::max(dominant, d / capacity);
        }
      }
      TSF_CHECK_GT(dominant, 0.0);
      denominator[k] = sub.weight[k] / dominant;
    }

    const FillingResult sub_result = ProgressiveFilling(sub, denominator);
    for (std::size_t k = 0; k < users.size(); ++k)
      result.allocation.add_tasks(users[k], m, sub_result.allocation.tasks(k, 0));
  }

  // No single share metric defines per-machine DRF globally; report the
  // global dominant share for comparability with DRFH.
  const std::vector<double> denominator = DrfhDenominator(problem);
  result.shares.assign(problem.num_users, 0.0);
  for (UserId i = 0; i < problem.num_users; ++i)
    result.shares[i] = result.allocation.UserTasks(i) / denominator[i];
  return result;
}

FillingResult SolveOffline(OfflinePolicy policy, const CompiledProblem& problem,
                           std::size_t resource) {
  switch (policy) {
    case OfflinePolicy::kTsf:
      return SolveTsf(problem);
    case OfflinePolicy::kCdrf:
      return SolveCdrf(problem);
    case OfflinePolicy::kDrfh:
      return SolveDrfh(problem);
    case OfflinePolicy::kPerMachineDrf:
      return SolvePerMachineDrf(problem);
    case OfflinePolicy::kCmmf:
      return SolveCmmf(problem, resource);
  }
  TSF_CHECK(false) << "unreachable";
}

}  // namespace tsf
