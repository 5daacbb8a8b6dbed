// Dense two-phase primal simplex.
//
// This is the substrate behind the paper's offline progressive-filling
// algorithm (Algorithm 1): every round solves a small linear program
//
//   maximize    c · x
//   subject to  A x {<=, =, >=} b,   x >= 0.
//
// The solver converts to standard form (slack / surplus / artificial
// columns), runs phase 1 to drive artificials out of the basis, then phase 2
// on the real objective. Pivoting uses Dantzig's rule with a Bland's-rule
// fallback after an iteration threshold, which guarantees termination on the
// degenerate programs progressive filling produces (many users pinned at
// identical shares).
//
// Problems in this codebase are small (tens to a few thousand variables), so
// a dense tableau is the right trade-off: no factorization machinery, exact
// and easily testable behaviour.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace tsf::lp {

enum class Relation { kLessEqual, kEqual, kGreaterEqual };

// kCutoff comes only from lp::SimplexState with an objective cutoff set:
// phase 2 stopped at a feasible basis whose objective exceeds the cutoff,
// so the optimum is at least that large (see revised.h).
enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kCutoff };

std::string ToString(SolveStatus status);

struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;      // valid iff status is kOptimal or kCutoff
  std::vector<double> x;       // primal values, one per variable

  bool optimal() const { return status == SolveStatus::kOptimal; }
};

class Problem {
 public:
  // All variables are implicitly bounded below by zero.
  explicit Problem(std::size_t num_variables);

  std::size_t num_variables() const { return num_variables_; }
  std::size_t num_constraints() const { return rows_.size(); }

  // Objective coefficients for `maximize c·x`; must match num_variables().
  void SetObjective(std::vector<double> coefficients);

  // Convenience for sparse objectives.
  void SetObjectiveCoefficient(std::size_t variable, double coefficient);

  // Adds `coeffs · x  rel  rhs`. Dense form; must match num_variables().
  void AddConstraint(std::vector<double> coefficients, Relation relation,
                     double rhs);

  // Sparse form: list of (variable, coefficient) pairs.
  void AddConstraintSparse(
      const std::vector<std::pair<std::size_t, double>>& terms,
      Relation relation, double rhs);

  Solution Solve() const;

 private:
  struct Row {
    std::vector<double> coefficients;
    Relation relation;
    double rhs;
  };

  std::size_t num_variables_;
  std::vector<double> objective_;
  std::vector<Row> rows_;
};

}  // namespace tsf::lp
