// Unit tests for the dense two-phase simplex oracle (lp_oracle.h) and for
// the warm-path operations of the revised solver that progressive filling
// relies on.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "lp/revised.h"
#include "lp_oracle.h"
#include "util/rng.h"

namespace tsf::lp {
namespace {

TEST(Simplex, SimpleTwoVariableMax) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 — classic textbook LP;
  // optimum 36 at (2, 6).
  Problem p(2);
  p.SetObjective({3, 5});
  p.AddConstraint({1, 0}, Relation::kLessEqual, 4);
  p.AddConstraint({0, 2}, Relation::kLessEqual, 12);
  p.AddConstraint({3, 2}, Relation::kLessEqual, 18);
  const Solution s = p.Solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 36.0, 1e-9);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 6.0, 1e-9);
}

TEST(Simplex, EqualityConstraint) {
  // max x + y s.t. x + y = 5, x <= 3 → objective 5.
  Problem p(2);
  p.SetObjective({1, 1});
  p.AddConstraint({1, 1}, Relation::kEqual, 5);
  p.AddConstraint({1, 0}, Relation::kLessEqual, 3);
  const Solution s = p.Solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 5.0, 1e-9);
  EXPECT_NEAR(s.x[0] + s.x[1], 5.0, 1e-9);
  EXPECT_LE(s.x[0], 3.0 + 1e-9);
}

TEST(Simplex, GreaterEqualConstraint) {
  // max -x (i.e. minimize x) s.t. x >= 2.5 → x = 2.5.
  Problem p(1);
  p.SetObjective({-1});
  p.AddConstraint({1}, Relation::kGreaterEqual, 2.5);
  const Solution s = p.Solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], 2.5, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  Problem p(1);
  p.SetObjective({1});
  p.AddConstraint({1}, Relation::kLessEqual, 1);
  p.AddConstraint({1}, Relation::kGreaterEqual, 2);
  EXPECT_EQ(p.Solve().status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Problem p(2);
  p.SetObjective({1, 0});
  p.AddConstraint({0, 1}, Relation::kLessEqual, 1);  // x unbounded
  EXPECT_EQ(p.Solve().status, SolveStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsIsNormalized) {
  // x - y <= -2 with x,y>=0: max x + 0y s.t. x <= y - 2, y <= 10 → x = 8.
  Problem p(2);
  p.SetObjective({1, 0});
  p.AddConstraint({1, -1}, Relation::kLessEqual, -2);
  p.AddConstraint({0, 1}, Relation::kLessEqual, 10);
  const Solution s = p.Solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 8.0, 1e-9);
}

TEST(Simplex, ZeroObjectiveFindsFeasiblePoint) {
  Problem p(2);
  p.AddConstraint({1, 1}, Relation::kEqual, 3);
  p.AddConstraint({1, 0}, Relation::kGreaterEqual, 1);
  const Solution s = p.Solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0] + s.x[1], 3.0, 1e-9);
  EXPECT_GE(s.x[0], 1.0 - 1e-9);
}

TEST(Simplex, DegenerateProgramTerminates) {
  // Many redundant constraints through the same vertex — stresses the
  // anti-cycling fallback.
  Problem p(2);
  p.SetObjective({1, 1});
  for (int k = 1; k <= 20; ++k)
    p.AddConstraint({static_cast<double>(k), static_cast<double>(k)},
                    Relation::kLessEqual, static_cast<double>(2 * k));
  const Solution s = p.Solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(Simplex, SparseConstraintForm) {
  Problem p(5);
  p.SetObjectiveCoefficient(4, 1.0);
  p.AddConstraintSparse({{4, 2.0}}, Relation::kLessEqual, 10.0);
  const Solution s = p.Solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[4], 5.0, 1e-9);
}

TEST(Simplex, SparseDuplicateTermsAccumulate) {
  Problem p(2);
  p.SetObjective({1, 0});
  // (1 + 1) x0 <= 4  →  x0 <= 2.
  p.AddConstraintSparse({{0, 1.0}, {0, 1.0}}, Relation::kLessEqual, 4.0);
  const Solution s = p.Solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(Simplex, RedundantEqualityRows) {
  // Duplicated equality leaves a degenerate artificial; must still solve.
  Problem p(2);
  p.SetObjective({1, 2});
  p.AddConstraint({1, 1}, Relation::kEqual, 4);
  p.AddConstraint({1, 1}, Relation::kEqual, 4);
  p.AddConstraint({0, 1}, Relation::kLessEqual, 3);
  const Solution s = p.Solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 1.0 * 1 + 2.0 * 3, 1e-9);
}

// Randomized validation: compare against brute-force over vertices for 2-D
// programs with <= constraints (feasible origin). For max c.x over a
// polytope the optimum lies at a vertex = intersection of two constraint
// lines (or axes), so enumerate all pairs.
TEST(Simplex, MatchesVertexEnumerationOn2D) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const int m = static_cast<int>(rng.Int(2, 6));
    std::vector<std::array<double, 3>> rows;  // a x + b y <= c, c > 0
    for (int k = 0; k < m; ++k)
      rows.push_back({rng.Uniform(0.05, 1.0), rng.Uniform(0.05, 1.0),
                      rng.Uniform(0.5, 4.0)});
    const double cx = rng.Uniform(0.0, 1.0), cy = rng.Uniform(0.0, 1.0);

    Problem p(2);
    p.SetObjective({cx, cy});
    for (const auto& row : rows)
      p.AddConstraint({row[0], row[1]}, Relation::kLessEqual, row[2]);
    const Solution s = p.Solve();
    ASSERT_TRUE(s.optimal());

    // Brute force: candidate vertices are pairwise line intersections plus
    // axis intercepts plus the origin.
    auto feasible = [&rows](double x, double y) {
      if (x < -1e-9 || y < -1e-9) return false;
      for (const auto& row : rows)
        if (row[0] * x + row[1] * y > row[2] + 1e-9) return false;
      return true;
    };
    double best = 0.0;  // origin
    auto consider = [&](double x, double y) {
      if (feasible(x, y)) best = std::max(best, cx * x + cy * y);
    };
    for (int a = 0; a < m; ++a) {
      consider(rows[a][2] / rows[a][0], 0.0);
      consider(0.0, rows[a][2] / rows[a][1]);
      for (int b = a + 1; b < m; ++b) {
        const double det = rows[a][0] * rows[b][1] - rows[a][1] * rows[b][0];
        if (std::abs(det) < 1e-12) continue;
        const double x = (rows[a][2] * rows[b][1] - rows[a][1] * rows[b][2]) / det;
        const double y = (rows[a][0] * rows[b][2] - rows[a][2] * rows[b][0]) / det;
        consider(x, y);
      }
    }
    EXPECT_NEAR(s.objective, best, 1e-6) << "trial " << trial;
  }
}

// Progressive filling in miniature (two users, see FillingEngine): tasks
// x0, x1, shares u0, u1 and the level s. Coupling rows x0 >= 2 u0 and
// x1 >= u1, active rows u_i >= s, the level row s >= 0, and capacity
// x0 + x1 <= 9, x0 <= 4. The round optimum is s = 2 (user 0 saturates).
constexpr std::size_t kX0 = 0, kX1 = 1, kU0 = 2, kU1 = 3, kLevel = 4;
struct FillingForm {
  SimplexState state;
  std::size_t active0;
  std::size_t level_row;
};

FillingForm MakeFillingForm() {
  StandardForm form(5);
  form.AddRow({{kX0, 1.0}, {kU0, -2.0}}, Relation::kGreaterEqual, 0.0);
  form.AddRow({{kX1, 1.0}, {kU1, -1.0}}, Relation::kGreaterEqual, 0.0);
  const std::size_t active0 =
      form.AddRow({{kU0, 1.0}, {kLevel, -1.0}}, Relation::kGreaterEqual, 0.0);
  form.AddRow({{kU1, 1.0}, {kLevel, -1.0}}, Relation::kGreaterEqual, 0.0);
  const std::size_t level_row =
      form.AddRow({{kLevel, 1.0}}, Relation::kGreaterEqual, 0.0);
  form.AddRow({{kX0, 1.0}, {kX1, 1.0}}, Relation::kLessEqual, 9.0);
  form.AddRow({{kX0, 1.0}}, Relation::kLessEqual, 4.0);
  form.SetObjectiveCoefficient(kLevel, 1.0);
  form.Finalize();
  return FillingForm{SimplexState(std::move(form)), active0, level_row};
}

TEST(RevisedSimplex, AllSlackStartSolvesWithoutPhaseOne) {
  FillingForm filling = MakeFillingForm();
  const Solution& round = filling.state.Solve();
  ASSERT_EQ(round.status, SolveStatus::kOptimal);
  EXPECT_NEAR(round.objective, 2.0, 1e-9);
  EXPECT_EQ(filling.state.stats().cold_solves, 1u);
}

TEST(RevisedSimplex, ObjectiveChangeResolvesWarmFromTheOptimum) {
  FillingForm filling = MakeFillingForm();
  ASSERT_TRUE(filling.state.Solve().optimal());
  filling.state.SetRhs(filling.level_row, 2.0);
  filling.state.SetObjectiveCoefficient(kLevel, 0.0);
  filling.state.SetObjectiveCoefficient(kU1, 1.0);
  const Solution& probe = filling.state.Solve();
  ASSERT_EQ(probe.status, SolveStatus::kOptimal);
  EXPECT_NEAR(probe.objective, 5.0, 1e-9);  // x0 = 4 keeps u0 >= 2
  EXPECT_EQ(filling.state.stats().warm_solves, 1u);
  EXPECT_EQ(filling.state.stats().cold_solves, 1u);
  const Solution dense = DenseProblemOf(filling.state.form()).Solve();
  EXPECT_NEAR(dense.objective, probe.objective, 1e-9);
}

TEST(RevisedSimplex, CutoffStopsAtTheFirstBasisAboveIt) {
  FillingForm filling = MakeFillingForm();
  ASSERT_TRUE(filling.state.Solve().optimal());
  filling.state.SetRhs(filling.level_row, 2.0);
  filling.state.SetObjectiveCoefficient(kLevel, 0.0);
  SimplexState saturated = filling.state;
  filling.state.SetObjectiveCoefficient(kU1, 1.0);
  filling.state.SetObjectiveCutoff(2.5);
  const Solution& rising = filling.state.Solve();
  ASSERT_EQ(rising.status, SolveStatus::kCutoff);
  EXPECT_GT(rising.objective, 2.5);
  EXPECT_LE(rising.objective, 5.0 + 1e-9);
  EXPECT_NEAR(rising.x[kU1], rising.objective, 1e-9);

  // User 0 cannot rise above 2 (x0 <= 4): the cutoff never triggers.
  saturated.SetObjectiveCoefficient(kU0, 1.0);
  saturated.SetObjectiveCutoff(2.5);
  const Solution& flat = saturated.Solve();
  ASSERT_EQ(flat.status, SolveStatus::kOptimal);
  EXPECT_NEAR(flat.objective, 2.0, 1e-9);
}

TEST(RevisedSimplex, FreezeViaEnterSlackKeepsTheBasisWarm) {
  FillingForm filling = MakeFillingForm();
  ASSERT_TRUE(filling.state.Solve().optimal());
  // Freeze user 0 at the round level: its active row becomes u0 >= 2.
  filling.state.SetRhs(filling.level_row, 2.0);
  filling.state.EnterSlack(filling.active0);
  filling.state.SetCoefficient(filling.active0, kLevel, 0.0);
  filling.state.SetRhs(filling.active0, 2.0);
  const Solution& next = filling.state.Solve();
  ASSERT_EQ(next.status, SolveStatus::kOptimal);
  EXPECT_NEAR(next.objective, 5.0, 1e-9);  // x0 = 4, x1 = u1 = s = 5
  EXPECT_EQ(filling.state.stats().warm_solves, 1u);
  EXPECT_EQ(filling.state.stats().cold_solves, 1u);
  const Solution dense = DenseProblemOf(filling.state.form()).Solve();
  EXPECT_NEAR(dense.objective, next.objective, 1e-9);
}

TEST(RevisedSimplex, EnterSlackWithoutABasisIsANoOp) {
  FillingForm filling = MakeFillingForm();
  filling.state.EnterSlack(filling.active0);  // nothing solved yet
  filling.state.SetCoefficient(filling.active0, kLevel, 0.0);
  filling.state.SetRhs(filling.active0, 1.0);
  const Solution& solution = filling.state.Solve();
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 7.0, 1e-9);  // u0 >= 1 needs x0 >= 2
  EXPECT_EQ(filling.state.stats().cold_solves, 1u);
}

}  // namespace
}  // namespace tsf::lp
