// Differential tests: the warm-started revised simplex (lp/revised.h) against
// the dense tableau oracle (lp_oracle.h). Randomized programs — feasible,
// infeasible, unbounded, and degenerate — must agree on status, and on the
// objective to 1e-9, both on cold solves and after chains of
// shape-preserving mutations re-solved warm. On the same programs, every
// answer of the one-pivot replay (OnePivotCutoffObjective) must be what the
// warm re-solve it replays reports, bit for bit.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lp/revised.h"
#include "lp/standard_form.h"
#include "lp_oracle.h"
#include "util/rng.h"

namespace tsf::lp {
namespace {

constexpr double kTol = 1e-9;

struct RandomProgram {
  StandardForm form;
  // Every (row, variable) slot created by AddRow, for mutation picking.
  std::vector<std::pair<std::size_t, std::size_t>> slots;
};

// Small integer coefficients keep the programs well-conditioned so the two
// solvers' roundoff stays far inside kTol; duplicate rows and repeated
// columns are injected deliberately to create degenerate ties.
RandomProgram MakeRandomProgram(Rng& rng, bool feasible_by_construction) {
  const std::size_t n = static_cast<std::size_t>(rng.Int(1, 5));
  const std::size_t m = static_cast<std::size_t>(rng.Int(1, 7));
  RandomProgram program{StandardForm(n), {}};

  std::vector<double> target(n, 0.0);
  if (feasible_by_construction)
    for (double& x : target) x = static_cast<double>(rng.Int(0, 4));

  std::vector<std::vector<std::pair<std::size_t, double>>> rows;
  for (std::size_t r = 0; r < m; ++r) {
    std::vector<std::pair<std::size_t, double>> terms;
    if (!rows.empty() && rng.Chance(0.15)) {
      terms = rows[rng.Below(rows.size())];  // duplicate row: degenerate tie
    } else {
      const std::size_t nnz = static_cast<std::size_t>(
          rng.Int(1, static_cast<std::int64_t>(n)));
      std::vector<std::size_t> vars(n);
      for (std::size_t v = 0; v < n; ++v) vars[v] = v;
      rng.Shuffle(vars);
      for (std::size_t k = 0; k < nnz; ++k) {
        double coeff = static_cast<double>(rng.Int(-3, 3));
        if (coeff == 0.0) coeff = 1.0;
        terms.emplace_back(vars[k], coeff);
      }
    }
    rows.push_back(terms);

    const int relation_pick = static_cast<int>(rng.Int(0, 2));
    const Relation relation = relation_pick == 0   ? Relation::kLessEqual
                              : relation_pick == 1 ? Relation::kGreaterEqual
                                                   : Relation::kEqual;
    double rhs;
    if (feasible_by_construction) {
      double value = 0.0;
      for (const auto& [v, coeff] : terms) value += coeff * target[v];
      const double slack = static_cast<double>(rng.Int(0, 3));
      rhs = relation == Relation::kLessEqual      ? value + slack
            : relation == Relation::kGreaterEqual ? value - slack
                                                  : value;
    } else {
      rhs = static_cast<double>(rng.Int(-4, 8));
    }
    const std::size_t row = program.form.AddRow(terms, relation, rhs);
    for (const auto& [v, unused] : terms) program.slots.emplace_back(row, v);
  }
  for (std::size_t v = 0; v < n; ++v)
    program.form.SetObjectiveCoefficient(v,
                                         static_cast<double>(rng.Int(-3, 3)));
  program.form.Finalize();
  return program;
}

void ExpectAgreement(const Solution& dense, const Solution& revised,
                     const char* context) {
  ASSERT_EQ(dense.status, revised.status) << context;
  if (dense.status != SolveStatus::kOptimal) return;
  const double scale = std::max(1.0, std::abs(dense.objective));
  EXPECT_NEAR(dense.objective, revised.objective, kTol * scale) << context;
}

// The optimal x reported by the revised path must actually satisfy the
// program it claims to solve — a stronger check than objective agreement
// (two wrong vertices can share an objective).
void ExpectFeasible(const StandardForm& form, const Solution& solution) {
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  ASSERT_EQ(solution.x.size(), form.num_variables());
  std::vector<double> activity(form.num_rows(), 0.0);
  for (std::size_t v = 0; v < form.num_variables(); ++v) {
    EXPECT_GE(solution.x[v], 0.0);
    for (const StandardForm::Entry& entry : form.column(v))
      activity[entry.row] += entry.value * solution.x[v];
  }
  for (std::size_t r = 0; r < form.num_rows(); ++r) {
    const double slack = form.rhs(r) - activity[r];
    switch (form.relation(r)) {
      case Relation::kLessEqual:
        EXPECT_GE(slack, -1e-6) << "row " << r;
        break;
      case Relation::kGreaterEqual:
        EXPECT_LE(slack, 1e-6) << "row " << r;
        break;
      case Relation::kEqual:
        EXPECT_NEAR(slack, 0.0, 1e-6) << "row " << r;
        break;
    }
  }
}

struct ReplayCounts {
  int zero_pivots = 0;  // the warm start already cleared the cutoff
  int one_pivot = 0;
};

// For every structural variable v and cutoffs around x[v]: whenever the
// replay of `maximize x_v` on `state` answers, a copy of the state solved
// for x_v under the same cutoff must stop there with a bit-equal objective.
void ExpectReplaysMatchSolves(SimplexState& state,
                              const std::vector<double>& x,
                              ReplayCounts* counts) {
  if (!state.RefreshWarmStart()) return;
  const std::size_t n = state.form().num_variables();
  for (std::size_t v = 0; v < n; ++v) {
    for (const double offset : {-1.0, 0.0, 1.0}) {
      const double cutoff = x[v] + offset;
      const std::optional<double> replay =
          state.OnePivotCutoffObjective(v, cutoff);
      if (!replay) continue;
      SimplexState copy = state;
      for (std::size_t u = 0; u < n; ++u)
        copy.SetObjectiveCoefficient(u, u == v ? 1.0 : 0.0);
      copy.SetObjectiveCutoff(cutoff);
      const std::uint64_t iterations = copy.stats().iterations;
      const Solution& solved = copy.Solve();
      ASSERT_EQ(solved.status, SolveStatus::kCutoff)
          << "variable " << v << ", cutoff " << cutoff;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(solved.objective),
                std::bit_cast<std::uint64_t>(*replay))
          << "variable " << v << ", cutoff " << cutoff << ": solve "
          << solved.objective << ", replay " << *replay;
      ++(copy.stats().iterations == iterations ? counts->zero_pivots
                                               : counts->one_pivot);
    }
  }
}

TEST(LpDifferentialTest, ColdSolveMatchesDenseOnRandomPrograms) {
  Rng rng(7041);
  int optimal = 0, infeasible = 0, unbounded = 0;
  ReplayCounts replays;
  for (int trial = 0; trial < 400; ++trial) {
    RandomProgram program = MakeRandomProgram(rng, trial % 2 == 0);
    const Solution dense = DenseProblemOf(program.form).Solve();
    SimplexState state(std::move(program.form));
    const Solution& revised = state.Solve();
    ExpectAgreement(dense, revised, "cold");
    switch (dense.status) {
      case SolveStatus::kOptimal:
        ++optimal;
        ExpectFeasible(state.form(), revised);
        ExpectReplaysMatchSolves(state, revised.x, &replays);
        break;
      case SolveStatus::kInfeasible:
        ++infeasible;
        break;
      case SolveStatus::kUnbounded:
        ++unbounded;
        break;
      case SolveStatus::kCutoff:
        ADD_FAILURE() << "the dense oracle has no objective cutoff";
        break;
    }
  }
  // The generator must actually exercise all three statuses.
  EXPECT_GT(optimal, 50);
  EXPECT_GT(infeasible, 20);
  EXPECT_GT(unbounded, 20);
  EXPECT_GT(replays.zero_pivots, 50);
  EXPECT_GT(replays.one_pivot, 50);
}

TEST(LpDifferentialTest, WarmResolveMatchesDenseAcrossMutationChains) {
  Rng rng(9102);
  std::uint64_t warm_total = 0;
  ReplayCounts replays;
  for (int trial = 0; trial < 200; ++trial) {
    RandomProgram program = MakeRandomProgram(rng, true);
    std::vector<std::pair<std::size_t, std::size_t>> slots = program.slots;
    SimplexState state(std::move(program.form));
    std::vector<double> x = state.Solve().x;  // of the last optimum
    for (int step = 0; step < 6; ++step) {
      if (rng.Chance(0.5)) {
        const std::size_t row = rng.Below(state.form().num_rows());
        state.SetRhs(row, state.form().rhs(row) +
                              static_cast<double>(rng.Int(-2, 2)));
      } else {
        const auto [row, variable] = slots[rng.Below(slots.size())];
        state.SetCoefficient(row, variable,
                             static_cast<double>(rng.Int(-3, 3)));
      }
      // Before the re-solve: the replay starts from the refreshed values.
      if (!x.empty()) ExpectReplaysMatchSolves(state, x, &replays);
      const Solution dense = DenseProblemOf(state.form()).Solve();
      const Solution& revised = state.Solve();
      ExpectAgreement(dense, revised, "warm chain");
      if (dense.status == SolveStatus::kOptimal) {
        ExpectFeasible(state.form(), revised);
        x = revised.x;
      }
    }
    warm_total += state.stats().warm_solves;
  }
  // The whole point of the engine: a healthy share of re-solves must take
  // the warm path.
  EXPECT_GT(warm_total, 200u);
  EXPECT_GT(replays.zero_pivots, 50);
  EXPECT_GT(replays.one_pivot, 50);
}

TEST(LpDifferentialTest, RefactorPathAfterNearSingularColumnUpdate) {
  // Column updates that swap the two basic columns' contents. Applying the
  // first column's delta alone makes the basis singular (Sherman-Morrison
  // beta = 1 + u[pos] = 0), so the warm path must Refactor() from the fully
  // mutated form — and the Gauss-Jordan there needs a partial-pivoting row
  // swap (work[0][0] == 0), pinning that binv_ comes back in the original
  // basis-position order (basis_/art_sign_ untouched by the swap).
  StandardForm form(2);
  form.AddRow({{0, 1.0}, {1, 0.0}}, Relation::kLessEqual, 1.0);
  form.AddRow({{0, 0.0}, {1, 1.0}}, Relation::kLessEqual, 2.0);
  form.SetObjectiveCoefficient(0, 2.0);
  form.SetObjectiveCoefficient(1, 1.0);
  form.Finalize();

  SimplexState state(std::move(form));
  const Solution& first = state.Solve();
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  EXPECT_NEAR(first.objective, 4.0, kTol);  // x = (1, 2)
  ASSERT_EQ(state.stats().cold_solves, 1u);

  state.SetCoefficient(0, 0, 0.0);  // col0 <- e1: beta hits 0 exactly
  state.SetCoefficient(1, 0, 1.0);
  state.SetCoefficient(0, 1, 1.0);  // col1 <- e0: refactored basis is
  state.SetCoefficient(1, 1, 0.0);  // nonsingular, but needs the row swap

  const Solution dense = DenseProblemOf(state.form()).Solve();
  const Solution& revised = state.Solve();
  ExpectAgreement(dense, revised, "refactor");
  ASSERT_EQ(revised.status, SolveStatus::kOptimal);
  EXPECT_NEAR(revised.objective, 5.0, kTol);  // x1 <= 1, x0 <= 2
  EXPECT_NEAR(revised.x[0], 2.0, kTol);
  EXPECT_NEAR(revised.x[1], 1.0, kTol);
  ExpectFeasible(state.form(), revised);
  EXPECT_EQ(state.stats().warm_solves, 1u);  // refactor stayed on the warm path
  EXPECT_EQ(state.stats().cold_solves, 1u);

  // The refactored state must stay consistent across further warm re-solves.
  state.SetRhs(0, 3.0);
  const Solution dense_after = DenseProblemOf(state.form()).Solve();
  const Solution& after = state.Solve();
  ExpectAgreement(dense_after, after, "post-refactor warm");
  ASSERT_EQ(after.status, SolveStatus::kOptimal);
  EXPECT_NEAR(after.objective, 7.0, kTol);  // x = (2, 3)
  ExpectFeasible(state.form(), after);
  EXPECT_EQ(state.stats().warm_solves, 2u);
}

TEST(LpDifferentialTest, InfeasibleAfterMutationIsDetected) {
  StandardForm form(2);
  form.AddRow({{0, 1.0}, {1, 1.0}}, Relation::kLessEqual, 4.0);
  const std::size_t floor_row =
      form.AddRow({{0, 1.0}}, Relation::kGreaterEqual, 1.0);
  form.SetObjectiveCoefficient(0, 1.0);
  form.Finalize();

  SimplexState state(std::move(form));
  ASSERT_EQ(state.Solve().status, SolveStatus::kOptimal);
  state.SetRhs(floor_row, 10.0);  // floor above capacity
  EXPECT_EQ(state.Solve().status, SolveStatus::kInfeasible);
  state.SetRhs(floor_row, 2.0);  // feasible again, but after an invalid state
  const Solution& back = state.Solve();
  ASSERT_EQ(back.status, SolveStatus::kOptimal);
  EXPECT_NEAR(back.objective, 4.0, kTol);
}

TEST(LpDifferentialTest, UnboundedDetectedByRevisedPath) {
  StandardForm form(2);
  form.AddRow({{0, 1.0}, {1, -1.0}}, Relation::kLessEqual, 1.0);
  form.SetObjectiveCoefficient(0, 1.0);
  form.Finalize();
  SimplexState state(std::move(form));
  EXPECT_EQ(state.Solve().status, SolveStatus::kUnbounded);
}

TEST(LpDifferentialTest, SolutionReferenceIsCachedUntilMutation) {
  StandardForm form(1);
  form.AddRow({{0, 1.0}}, Relation::kLessEqual, 5.0);
  form.SetObjectiveCoefficient(0, 1.0);
  form.Finalize();
  SimplexState state(std::move(form));
  state.Solve();
  state.Solve();
  state.Solve();
  EXPECT_EQ(state.stats().solves, 1u);  // repeat Solve() calls are free
}

}  // namespace
}  // namespace tsf::lp
