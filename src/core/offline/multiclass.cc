#include "core/offline/multiclass.h"

#include <cmath>
#include <utility>

#include "core/offline/filling_engine.h"
#include "lp/revised.h"
#include "util/check.h"

namespace tsf {
namespace {

// Task-variable layout: one variable per (user, class, eligible machine)
// triple; the engine appends the share columns.
struct TripleLayout {
  struct Triple {
    UserId user;
    std::size_t cls;
    MachineId machine;
  };
  std::vector<Triple> triples;
  std::vector<std::vector<std::vector<std::size_t>>> by_user_class;  // ids
  std::vector<std::vector<std::size_t>> by_machine;

  explicit TripleLayout(const CompiledMultiClass& problem)
      : by_user_class(problem.num_users),
        by_machine(problem.num_machines) {
    for (UserId i = 0; i < problem.num_users; ++i) {
      by_user_class[i].resize(problem.mix[i].size());
      for (std::size_t c = 0; c < problem.mix[i].size(); ++c) {
        problem.eligible[i].ForEachSet([&](std::size_t m) {
          const std::size_t id = triples.size();
          triples.push_back({i, c, m});
          by_user_class[i][c].push_back(id);
          by_machine[m].push_back(id);
        });
      }
    }
  }
};

MultiClassAllocation EmptyAllocation(const CompiledMultiClass& problem) {
  MultiClassAllocation allocation;
  allocation.num_users = problem.num_users;
  allocation.tasks.resize(problem.num_users);
  for (UserId i = 0; i < problem.num_users; ++i)
    allocation.tasks[i].assign(problem.mix[i].size(),
                               std::vector<double>(problem.num_machines, 0.0));
  return allocation;
}

// Engine form of the multi-class round LP: per user i and class c a coupling
// row  sum_m n_icm >= mix_ic * H_i w_i * u_i, so a share floor on u_i keeps
// the mix, plus the machine capacity rows.
FillingSpec MakeSpec(const CompiledMultiClass& problem,
                     const TripleLayout& layout) {
  FillingSpec spec;
  spec.num_structural = layout.triples.size();
  spec.user_rows.resize(problem.num_users);
  for (UserId i = 0; i < problem.num_users; ++i) {
    const double scale = problem.H[i] * problem.weight[i];
    for (std::size_t c = 0; c < problem.mix[i].size(); ++c) {
      FillingCouplingRow row;
      row.terms.reserve(layout.by_user_class[i][c].size());
      for (const std::size_t id : layout.by_user_class[i][c])
        row.terms.emplace_back(id, 1.0);
      row.share_coeff = problem.mix[i][c] * scale;
      spec.user_rows[i].push_back(std::move(row));
    }
  }
  for (MachineId m = 0; m < problem.num_machines; ++m) {
    for (std::size_t r = 0; r < problem.num_resources; ++r) {
      FillingCapacityRow row;
      for (const std::size_t id : layout.by_machine[m]) {
        const auto& triple = layout.triples[id];
        const double d = problem.demand[triple.user][triple.cls][r];
        if (d > 0.0) row.terms.emplace_back(id, d);
      }
      if (row.terms.empty()) continue;
      row.capacity = problem.machine_capacity[m][r];
      spec.capacity.push_back(std::move(row));
    }
  }
  return spec;
}

MultiClassAllocation AllocationFromPrimal(const CompiledMultiClass& problem,
                                          const TripleLayout& layout,
                                          const std::vector<double>& x) {
  MultiClassAllocation allocation = EmptyAllocation(problem);
  // The solver guarantees x >= 0 (clamped against roundoff solver-side).
  for (std::size_t id = 0; id < layout.triples.size(); ++id) {
    const auto& triple = layout.triples[id];
    allocation.tasks[triple.user][triple.cls][triple.machine] = x[id];
  }
  return allocation;
}

}  // namespace

double MultiClassAllocation::UserTasks(UserId i) const {
  double total = 0;
  for (const auto& machines : tasks[i])
    for (const double n : machines) total += n;
  return total;
}

double MultiClassAllocation::ClassTasks(UserId i, std::size_t c) const {
  double total = 0;
  for (const double n : tasks[i][c]) total += n;
  return total;
}

double MultiClassMonopolyTasks(const CompiledMultiClass& problem, UserId i) {
  // Monopoly: constraints removed (every machine usable), mix enforced.
  // Variables: n_cm for this user's classes over all machines, plus n. The
  // mix rows read sum_m n_cm >= mix_c * n rather than =: demands are
  // nonnegative, so dropping a class's surplus tasks never breaks a
  // capacity row and the optimal n is the equality form's. With these rows
  // the all-slack basis is feasible and the solve skips phase 1.
  const std::size_t classes = problem.mix[i].size();
  const std::size_t machines = problem.num_machines;
  lp::StandardForm form(classes * machines + 1);
  const std::size_t total_var = classes * machines;
  form.SetObjectiveCoefficient(total_var, 1.0);
  auto var = [machines](std::size_t c, MachineId m) { return c * machines + m; };

  for (std::size_t c = 0; c < classes; ++c) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (MachineId m = 0; m < machines; ++m) terms.emplace_back(var(c, m), 1.0);
    terms.emplace_back(total_var, -problem.mix[i][c]);
    form.AddRow(terms, lp::Relation::kGreaterEqual, 0.0);
  }
  for (MachineId m = 0; m < machines; ++m) {
    for (std::size_t r = 0; r < problem.num_resources; ++r) {
      std::vector<std::pair<std::size_t, double>> terms;
      for (std::size_t c = 0; c < classes; ++c) {
        const double d = problem.demand[i][c][r];
        if (d > 0.0) terms.emplace_back(var(c, m), d);
      }
      if (!terms.empty())
        form.AddRow(terms, lp::Relation::kLessEqual,
                    problem.machine_capacity[m][r]);
    }
  }
  form.Finalize();
  lp::SimplexState state(std::move(form));
  const lp::Solution& solution = state.Solve();
  TSF_CHECK(solution.optimal()) << "monopoly LP failed";
  return solution.objective;
}

CompiledMultiClass CompileMultiClass(const MultiClassProblem& problem) {
  const Cluster& cluster = problem.cluster;
  TSF_CHECK_GT(cluster.num_machines(), 0u);
  TSF_CHECK(!problem.users.empty());

  CompiledMultiClass compiled;
  compiled.num_users = problem.users.size();
  compiled.num_machines = cluster.num_machines();
  compiled.num_resources = cluster.num_resources();
  for (MachineId m = 0; m < compiled.num_machines; ++m)
    compiled.machine_capacity.push_back(cluster.NormalizedCapacity(m));

  for (const MultiClassJobSpec& user : problem.users) {
    TSF_CHECK_GT(user.weight, 0.0);
    TSF_CHECK(!user.class_demand.empty()) << user.name << ": no classes";
    TSF_CHECK_EQ(user.class_demand.size(), user.class_mix.size());
    double mix_sum = 0;
    std::vector<ResourceVector> demands;
    for (std::size_t c = 0; c < user.class_demand.size(); ++c) {
      TSF_CHECK_GT(user.class_mix[c], 0.0)
          << user.name << ": class mix must be strictly positive";
      mix_sum += user.class_mix[c];
      ResourceVector d = cluster.NormalizedDemand(user.class_demand[c]);
      TSF_CHECK(!d.IsZero()) << user.name << ": zero-demand class";
      demands.push_back(std::move(d));
    }
    TSF_CHECK(std::abs(mix_sum - 1.0) < 1e-9)
        << user.name << ": class mix must sum to 1 (got " << mix_sum << ")";
    DynamicBitset eligible = cluster.Eligibility(user.constraint);
    TSF_CHECK(eligible.Any()) << user.name << ": no eligible machine";
    compiled.demand.push_back(std::move(demands));
    compiled.mix.push_back(user.class_mix);
    compiled.eligible.push_back(std::move(eligible));
    compiled.weight.push_back(user.weight);
  }

  compiled.H.resize(compiled.num_users);
  for (UserId i = 0; i < compiled.num_users; ++i) {
    compiled.H[i] = MultiClassMonopolyTasks(compiled, i);
    TSF_CHECK_GT(compiled.H[i], 0.0);
  }
  return compiled;
}

FillingSpec MakeMultiClassFillingSpec(const CompiledMultiClass& problem) {
  return MakeSpec(problem, TripleLayout(problem));
}

MultiClassResult SolveMultiClassTsf(const CompiledMultiClass& problem) {
  const TripleLayout layout(problem);
  FillingEngine engine(MakeSpec(problem, layout));
  const std::size_t n = problem.num_users;

  MultiClassResult result;
  result.allocation = EmptyAllocation(problem);
  result.shares.assign(n, 0.0);

  std::size_t num_active = n;
  std::size_t rounds = 0;
  std::vector<double> x;
  while (num_active > 0) {
    TSF_CHECK_LE(++rounds, n + 1) << "multi-class filling did not converge";
    double level = 0.0;
    TSF_CHECK(engine.SolveRound(&level, &x)) << "round LP infeasible";
    result.allocation = AllocationFromPrimal(problem, layout, x);
    num_active -= engine.FreezeSaturatedUsers().size();
  }

  for (UserId i = 0; i < n; ++i)
    result.shares[i] = result.allocation.UserTasks(i) /
                       (problem.H[i] * problem.weight[i]);
  return result;
}

}  // namespace tsf
