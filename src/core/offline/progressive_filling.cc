#include "core/offline/progressive_filling.h"

#include "util/check.h"

namespace tsf {

FillingSpec MakeFillingSpec(const CompiledProblem& problem,
                            const EdgeLayout& layout,
                            const std::vector<double>& denominator) {
  FillingSpec spec;
  spec.num_structural = layout.edges.size();
  spec.user_rows.resize(problem.num_users);
  for (UserId i = 0; i < problem.num_users; ++i) {
    FillingCouplingRow row;
    row.terms.reserve(layout.user_edges[i].size());
    for (const std::size_t e : layout.user_edges[i]) row.terms.emplace_back(e, 1.0);
    row.share_coeff = denominator[i];
    spec.user_rows[i].push_back(std::move(row));
  }
  for (MachineId m = 0; m < problem.num_machines; ++m) {
    for (std::size_t r = 0; r < problem.num_resources; ++r) {
      FillingCapacityRow row;
      for (const std::size_t e : layout.machine_edges[m]) {
        const UserId i = layout.edges[e].first;
        const double d = problem.demand[i][r];
        if (d > 0.0) row.terms.emplace_back(e, d);
      }
      if (row.terms.empty()) continue;
      row.capacity = problem.machine_capacity[m][r];
      spec.capacity.push_back(std::move(row));
    }
  }
  return spec;
}

namespace {

Allocation AllocationFromPrimal(const CompiledProblem& problem,
                                const EdgeLayout& layout,
                                const std::vector<double>& x) {
  Allocation allocation(problem.num_users, problem.num_machines);
  // The solver guarantees x >= 0 (clamped against roundoff solver-side).
  for (std::size_t e = 0; e < layout.edges.size(); ++e) {
    const auto [i, m] = layout.edges[e];
    allocation.set_tasks(i, m, x[e]);
  }
  return allocation;
}

}  // namespace

EdgeLayout::EdgeLayout(const CompiledProblem& problem)
    : user_edges(problem.num_users), machine_edges(problem.num_machines) {
  for (UserId i = 0; i < problem.num_users; ++i) {
    problem.eligible[i].ForEachSet([&](std::size_t m) {
      const std::size_t e = edges.size();
      edges.emplace_back(i, m);
      user_edges[i].push_back(e);
      machine_edges[m].push_back(e);
    });
  }
}

double MaxShareWithFloors(const CompiledProblem& problem,
                          const std::vector<double>& denominator, UserId j,
                          const std::vector<double>& floor_tasks) {
  const EdgeLayout layout(problem);
  return MaxShareWithFloors(problem, layout, denominator, j, floor_tasks);
}

double MaxShareWithFloors(const CompiledProblem& problem,
                          const EdgeLayout& layout,
                          const std::vector<double>& denominator, UserId j,
                          const std::vector<double>& floor_tasks) {
  TSF_CHECK_LT(j, problem.num_users);
  TSF_CHECK_EQ(denominator.size(), problem.num_users);
  TSF_CHECK_EQ(floor_tasks.size(), problem.num_users);

  FillingEngine engine(MakeFillingSpec(problem, layout, denominator));
  for (UserId i = 0; i < problem.num_users; ++i)
    if (i != j) engine.FreezeUser(i, floor_tasks[i] / denominator[i]);
  double share = 0.0;
  TSF_CHECK(engine.SolveRound(&share, nullptr))
      << "freeze-probe LP infeasible — floors exceed capacity?";
  return share;
}

FillingResult ProgressiveFilling(const CompiledProblem& problem,
                                 const std::vector<double>& denominator) {
  TSF_CHECK_EQ(denominator.size(), problem.num_users);
  for (const double d : denominator) TSF_CHECK_GT(d, 0.0);

  const EdgeLayout layout(problem);
  FillingEngine engine(MakeFillingSpec(problem, layout, denominator));
  const std::size_t n = problem.num_users;

  FillingResult result;
  result.freeze_round.assign(n, 0);
  result.shares.assign(n, 0.0);

  std::size_t num_active = n;
  std::size_t round_number = 0;
  std::vector<double> x;
  while (num_active > 0) {
    ++round_number;
    TSF_CHECK_LE(round_number, n + 1) << "progressive filling failed to converge";

    // LP step: raise all active users' shares equally to the maximum. Warm
    // from the previous round — freezes kept its basis.
    double level = 0.0;
    TSF_CHECK(engine.SolveRound(&level, &x)) << "round LP infeasible";
    result.round_levels.push_back(level);
    result.allocation = AllocationFromPrimal(problem, layout, x);

    // FREEZE step: the engine probes every active user off the solved round
    // LP and freezes the saturated ones at the round level.
    for (const std::size_t j : engine.FreezeSaturatedUsers()) {
      result.freeze_round[j] = round_number;
      --num_active;
    }
  }

  // The final round's LP may have topped inactive users up beyond their
  // frozen floors; report the shares the returned allocation actually gives.
  for (UserId i = 0; i < n; ++i)
    result.shares[i] = result.allocation.UserTasks(i) / denominator[i];

  return result;
}

}  // namespace tsf
