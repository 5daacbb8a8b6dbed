// Dense two-phase primal simplex: the test oracle for the revised solver.
//
// Production LPs run on lp::SimplexState (lp/revised.h). This solver
// rebuilds a dense tableau from scratch on every call, shares no code with
// the revised path, and is simple enough to check by reading, so the
// differential and reference tests solve the same programs on both and
// compare. It solves
//
//   maximize    c · x
//   subject to  A x {<=, =, >=} b,   x >= 0
//
// by converting to standard form (slack / surplus / artificial columns),
// running phase 1 to drive artificials out of the basis, then phase 2 on
// the real objective. Pivoting uses Dantzig's rule with a Bland's-rule
// fallback after an iteration threshold, which guarantees termination on
// the degenerate programs progressive filling produces (many users pinned
// at identical shares).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "lp/revised.h"
#include "lp/standard_form.h"

namespace tsf::lp {

// Never reports kCutoff: the oracle always solves to optimality.
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

// The dense Problem equivalent to a finalized form: same rows, relations,
// right-hand sides and objective.
Problem DenseProblemOf(const StandardForm& form);

}  // namespace tsf::lp
