#include "lp_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace tsf::lp {
namespace {

// Feasibility / pivot tolerance. Progressive filling's coefficients are
// ratios of task counts and capacities, all O(1) after normalization, so a
// fixed absolute tolerance is appropriate.
constexpr double kEps = 1e-9;

// Dense simplex tableau over the standard-form program.
//
// Layout: `a` has one row per constraint over `width` structural+slack+
// artificial columns, with the rhs held separately in `b`. `basis[r]` names
// the column currently basic in row r.
struct Tableau {
  std::size_t rows = 0;
  std::size_t width = 0;
  std::vector<std::vector<double>> a;
  std::vector<double> b;
  std::vector<std::size_t> basis;

  void Pivot(std::size_t pivot_row, std::size_t pivot_col) {
    std::vector<double>& prow = a[pivot_row];
    const double inv = 1.0 / prow[pivot_col];
    for (double& v : prow) v *= inv;
    b[pivot_row] *= inv;
    prow[pivot_col] = 1.0;  // kill round-off on the pivot element itself

    for (std::size_t r = 0; r < rows; ++r) {
      if (r == pivot_row) continue;
      const double factor = a[r][pivot_col];
      if (factor == 0.0) continue;
      std::vector<double>& row = a[r];
      for (std::size_t c = 0; c < width; ++c) row[c] -= factor * prow[c];
      row[pivot_col] = 0.0;
      b[r] -= factor * b[pivot_row];
    }
    basis[pivot_row] = pivot_col;
  }
};

// Runs simplex iterations on `t` for `minimize cost·x` expressed as reduced
// costs recomputed from the basis each iteration... — instead we carry the
// objective row explicitly: `z[c]` are current reduced costs (for a
// maximization, entering column needs z[c] > eps) and `z_value` the current
// objective. Returns false if unbounded.
struct ObjectiveRow {
  std::vector<double> z;
  double value = 0.0;
};

enum class IterateResult { kOptimal, kUnbounded };

IterateResult Iterate(Tableau& t, ObjectiveRow& obj,
                      const std::vector<bool>& allowed_column) {
  // After this many pivots switch from Dantzig to Bland's rule, which cannot
  // cycle. The bound is generous: non-degenerate programs of our sizes
  // finish in far fewer.
  const std::size_t bland_threshold = 50 * (t.rows + t.width);
  std::size_t iterations = 0;

  for (;;) {
    const bool use_bland = iterations++ > bland_threshold;

    // Choose entering column: any column with positive reduced cost.
    std::size_t entering = t.width;
    double best = kEps;
    for (std::size_t c = 0; c < t.width; ++c) {
      if (!allowed_column[c]) continue;
      if (obj.z[c] > best) {
        entering = c;
        if (use_bland) break;  // first eligible index
        best = obj.z[c];
      }
    }
    if (entering == t.width) return IterateResult::kOptimal;

    // Ratio test for the leaving row.
    std::size_t leaving = t.rows;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < t.rows; ++r) {
      const double coeff = t.a[r][entering];
      if (coeff <= kEps) continue;
      const double ratio = t.b[r] / coeff;
      if (ratio < best_ratio - kEps ||
          (use_bland && ratio < best_ratio + kEps && leaving < t.rows &&
           t.basis[r] < t.basis[leaving])) {
        best_ratio = ratio;
        leaving = r;
      }
    }
    if (leaving == t.rows) return IterateResult::kUnbounded;

    // Update objective row, then pivot the tableau.
    const double factor = obj.z[entering];
    t.Pivot(leaving, entering);
    const std::vector<double>& prow = t.a[leaving];
    for (std::size_t c = 0; c < t.width; ++c) obj.z[c] -= factor * prow[c];
    obj.z[entering] = 0.0;
    obj.value += factor * t.b[leaving];
  }
}

}  // namespace

Problem::Problem(std::size_t num_variables)
    : num_variables_(num_variables), objective_(num_variables, 0.0) {
  TSF_CHECK_GT(num_variables, 0u);
}

void Problem::SetObjective(std::vector<double> coefficients) {
  TSF_CHECK_EQ(coefficients.size(), num_variables_);
  objective_ = std::move(coefficients);
}

void Problem::SetObjectiveCoefficient(std::size_t variable, double coefficient) {
  TSF_CHECK_LT(variable, num_variables_);
  objective_[variable] = coefficient;
}

void Problem::AddConstraint(std::vector<double> coefficients, Relation relation,
                            double rhs) {
  TSF_CHECK_EQ(coefficients.size(), num_variables_);
  TSF_CHECK(std::isfinite(rhs));
  rows_.push_back(Row{std::move(coefficients), relation, rhs});
}

void Problem::AddConstraintSparse(
    const std::vector<std::pair<std::size_t, double>>& terms, Relation relation,
    double rhs) {
  std::vector<double> coefficients(num_variables_, 0.0);
  for (const auto& [variable, coefficient] : terms) {
    TSF_CHECK_LT(variable, num_variables_);
    coefficients[variable] += coefficient;
  }
  AddConstraint(std::move(coefficients), relation, rhs);
}

Solution Problem::Solve() const {
  const std::size_t n = num_variables_;
  const std::size_t m = rows_.size();

  // --- Build the standard-form tableau. ---
  // Column layout: [structural 0..n) | slack/surplus | artificial].
  std::size_t num_slack = 0;
  for (const Row& row : rows_)
    if (row.relation != Relation::kEqual) ++num_slack;

  Tableau t;
  t.rows = m;
  t.width = n + num_slack;  // artificials appended below as needed
  t.a.assign(m, {});
  t.b.assign(m, 0.0);
  t.basis.assign(m, 0);

  // First pass: structural + slack columns; flip rows so rhs >= 0.
  std::vector<int> sign(m, 1);           // row multiplier applied
  std::vector<Relation> relation(m);     // relation after the flip
  {
    std::size_t slack_index = n;
    for (std::size_t r = 0; r < m; ++r) {
      const Row& row = rows_[r];
      relation[r] = row.relation;
      sign[r] = row.rhs < 0.0 ? -1 : 1;
      if (sign[r] < 0) {
        if (row.relation == Relation::kLessEqual)
          relation[r] = Relation::kGreaterEqual;
        else if (row.relation == Relation::kGreaterEqual)
          relation[r] = Relation::kLessEqual;
      }
      t.a[r].assign(t.width, 0.0);
      for (std::size_t c = 0; c < n; ++c)
        t.a[r][c] = sign[r] * row.coefficients[c];
      t.b[r] = sign[r] * row.rhs;
      if (relation[r] == Relation::kLessEqual) {
        t.a[r][slack_index] = 1.0;
        t.basis[r] = slack_index;  // slack starts basic
        ++slack_index;
      } else if (relation[r] == Relation::kGreaterEqual) {
        t.a[r][slack_index] = -1.0;  // surplus
        t.basis[r] = t.width;        // placeholder: needs an artificial
        ++slack_index;
      } else {
        t.basis[r] = t.width;  // placeholder: needs an artificial
      }
    }
  }

  // Second pass: append artificial columns where no slack could start basic.
  std::vector<std::size_t> artificial_rows;
  for (std::size_t r = 0; r < m; ++r)
    if (t.basis[r] == t.width) artificial_rows.push_back(r);

  const std::size_t num_artificial = artificial_rows.size();
  const std::size_t total_width = t.width + num_artificial;
  for (std::size_t r = 0; r < m; ++r) t.a[r].resize(total_width, 0.0);
  for (std::size_t k = 0; k < num_artificial; ++k) {
    const std::size_t r = artificial_rows[k];
    const std::size_t col = t.width + k;
    t.a[r][col] = 1.0;
    t.basis[r] = col;
  }
  const std::size_t artificial_begin = t.width;
  t.width = total_width;

  std::vector<bool> allow_all(t.width, true);

  // --- Phase 1: minimize the sum of artificials (maximize its negation). ---
  if (num_artificial > 0) {
    ObjectiveRow phase1;
    phase1.z.assign(t.width, 0.0);
    // Objective: maximize -(sum of artificials). Reduced costs must reflect
    // the starting basis (artificials basic), so add each artificial row
    // into the objective row.
    for (std::size_t c = artificial_begin; c < t.width; ++c) phase1.z[c] = -1.0;
    for (const std::size_t r : artificial_rows) {
      for (std::size_t c = 0; c < t.width; ++c) phase1.z[c] += t.a[r][c];
      phase1.value += t.b[r];
    }
    // Note: phase1.value now tracks -(sum of artificials) shifted by a
    // constant; only its change matters, we test feasibility via basis/rhs.
    const IterateResult result = Iterate(t, phase1, allow_all);
    TSF_CHECK(result == IterateResult::kOptimal)
        << "phase 1 cannot be unbounded";

    // Infeasible if any artificial remains basic at positive level.
    for (std::size_t r = 0; r < m; ++r) {
      if (t.basis[r] >= artificial_begin && t.b[r] > 1e-7)
        return Solution{SolveStatus::kInfeasible, 0.0, {}};
    }
    // Drive any degenerate basic artificials out of the basis so phase 2
    // never re-enters them.
    for (std::size_t r = 0; r < m; ++r) {
      if (t.basis[r] < artificial_begin) continue;
      std::size_t replacement = t.width;
      for (std::size_t c = 0; c < artificial_begin; ++c) {
        if (std::abs(t.a[r][c]) > kEps) {
          replacement = c;
          break;
        }
      }
      if (replacement < t.width) {
        t.Pivot(r, replacement);
      }
      // If the whole row is zero the constraint was redundant; the basic
      // artificial stays at level zero and is simply banned below.
    }
  }

  // --- Phase 2: the real objective over non-artificial columns. ---
  std::vector<bool> allowed(t.width, true);
  for (std::size_t c = artificial_begin; c < t.width; ++c) allowed[c] = false;

  ObjectiveRow phase2;
  phase2.z.assign(t.width, 0.0);
  for (std::size_t c = 0; c < n; ++c) phase2.z[c] = objective_[c];
  // Express reduced costs relative to the current basis.
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t bc = t.basis[r];
    const double cost = bc < n ? objective_[bc] : 0.0;
    if (cost == 0.0) continue;
    for (std::size_t c = 0; c < t.width; ++c) phase2.z[c] -= cost * t.a[r][c];
    phase2.value += cost * t.b[r];
  }
  // Basic columns must have zero reduced cost exactly.
  for (std::size_t r = 0; r < m; ++r) phase2.z[t.basis[r]] = 0.0;

  if (Iterate(t, phase2, allowed) == IterateResult::kUnbounded)
    return Solution{SolveStatus::kUnbounded, 0.0, {}};

  Solution solution;
  solution.status = SolveStatus::kOptimal;
  solution.objective = phase2.value;
  solution.x.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    if (t.basis[r] < n) {
      // Roundoff may leave a basic variable a hair below zero; clamp here,
      // solver-side, so callers can rely on x >= 0 exactly. Anything beyond
      // roundoff magnitude is a solver bug.
      TSF_DCHECK_GE(t.b[r], -1e-7)
          << " basic variable " << t.basis[r] << " below clamp tolerance";
      solution.x[t.basis[r]] = std::max(0.0, t.b[r]);
    }
  }
  return solution;
}

Problem DenseProblemOf(const StandardForm& form) {
  TSF_CHECK(form.finalized());
  const std::size_t n = form.num_variables();
  Problem problem(n);
  problem.SetObjective(form.objective());
  std::vector<std::vector<double>> rows(form.num_rows(),
                                        std::vector<double>(n, 0.0));
  for (std::size_t variable = 0; variable < n; ++variable)
    for (const StandardForm::Entry& entry : form.column(variable))
      rows[entry.row][variable] = entry.value;
  for (std::size_t row = 0; row < form.num_rows(); ++row)
    problem.AddConstraint(std::move(rows[row]), form.relation(row),
                          form.rhs(row));
  return problem;
}

}  // namespace tsf::lp
