#include "lp/revised.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "telemetry/telemetry.h"
#include "util/check.h"

namespace tsf::lp {
namespace {

// Pivot / reduced-cost tolerance. Progressive filling's coefficients are
// ratios of task counts and capacities, all O(1) after normalization, so a
// fixed absolute tolerance is appropriate.
constexpr double kEps = 1e-9;

// Feasibility tolerance for warm-start certification and for the phase-1
// artificial residual.
constexpr double kFeasEps = 1e-7;

// A Sherman-Morrison denominator below this means the rank-one update would
// make the basis (numerically) singular; refactor instead.
constexpr double kSingularEps = 1e-9;

// Minimum pivot magnitude for the banned-basic drive-out preference. The
// drive-out pivot skips the ratio test, so the entering variable lands at
// xb/d; requiring |xb| <= kEps and |d| > kDriveOutEps bounds that step by
// kEps / kDriveOutEps — (near-)degenerate, never a feasibility jump.
constexpr double kDriveOutEps = 1e-6;

constexpr std::size_t kNoRow = std::numeric_limits<std::size_t>::max();

}  // namespace

std::string ToString(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kCutoff:
      return "cutoff";
  }
  return "?";
}

SimplexState::SimplexState(StandardForm form) : form_(std::move(form)) {
  TSF_CHECK(form_.finalized()) << "SimplexState needs a finalized form";
}

void SimplexState::SetRhs(std::size_t row, double rhs) {
  form_.SetRhs(row, rhs);
  dirty_ = true;
  solution_valid_ = false;
  warm_start_ready_ = false;
}

void SimplexState::SetCoefficient(std::size_t row, std::size_t variable,
                                  double value) {
  const double previous = form_.SetCoefficient(row, variable, value);
  if (previous == value) return;
  warm_start_ready_ = false;
  if (state_valid_) {
    PendingColumn* pending = nullptr;
    for (PendingColumn& p : pending_)
      if (p.variable == variable) pending = &p;
    if (pending == nullptr) {
      pending_.push_back(PendingColumn{variable, {}});
      pending = &pending_.back();
    }
    bool recorded = false;
    for (const auto& [r, unused] : pending->old_values)
      if (r == row) recorded = true;
    if (!recorded) pending->old_values.emplace_back(row, previous);
  }
  dirty_ = true;
  solution_valid_ = false;
}

void SimplexState::SetObjectiveCoefficient(std::size_t variable,
                                           double coefficient) {
  form_.SetObjectiveCoefficient(variable, coefficient);
  dirty_ = true;
  solution_valid_ = false;
}

void SimplexState::SetObjectiveCutoff(double cutoff) {
  TSF_CHECK(!std::isnan(cutoff));
  cutoff_ = cutoff;
  dirty_ = true;
  solution_valid_ = false;
}

void SimplexState::EnterSlack(std::size_t row) {
  TSF_CHECK_LT(row, form_.num_rows());
  TSF_CHECK(form_.relation(row) != Relation::kEqual)
      << "an equality row's surplus is banned from the basis";
  warm_start_ready_ = false;
  if (!state_valid_) return;
  if (!ApplyPendingColumnUpdates()) {
    state_valid_ = false;
    return;
  }
  ComputeBasicValues();
  const std::size_t slack = SlackCol(row);
  if (is_basic_[slack]) return;
  std::vector<double> d(form_.num_rows());
  Ftran(slack, d);
  const std::size_t leaving = LeavingRow(d, /*use_bland=*/false);
  if (leaving == form_.num_rows()) {
    state_valid_ = false;
    return;
  }
  Pivot(leaving, slack, d);
  ++stats_.iterations;
  TSF_COUNTER_ADD("lp.iterations", 1);
}

std::size_t SimplexState::SlackCol(std::size_t row) const {
  return form_.num_variables() + row;
}

std::size_t SimplexState::ArtificialCol(std::size_t row) const {
  return form_.num_variables() + form_.num_rows() + row;
}

bool SimplexState::IsArtificial(std::size_t col) const {
  return col >= form_.num_variables() + form_.num_rows();
}

bool SimplexState::ColumnAllowed(std::size_t col, bool /*phase1*/) const {
  const std::size_t n = form_.num_variables();
  if (col < n) return true;
  if (IsArtificial(col)) return false;  // artificials only ever leave
  return form_.relation(col - n) != Relation::kEqual;
}

bool SimplexState::IsBannedBasic(std::size_t col) const {
  const std::size_t n = form_.num_variables();
  if (col < n) return false;
  if (IsArtificial(col)) return true;
  return form_.relation(col - n) == Relation::kEqual;
}

double SimplexState::ColumnCost(std::size_t col, bool phase1) const {
  if (phase1) return IsArtificial(col) ? -1.0 : 0.0;
  return col < form_.num_variables() ? form_.objective()[col] : 0.0;
}

void SimplexState::Ftran(std::size_t col, std::vector<double>& d) const {
  const std::size_t m = form_.num_rows();
  const std::size_t n = form_.num_variables();
  d.assign(m, 0.0);
  if (col < n) {
    for (const StandardForm::Entry& entry : form_.column(col)) {
      const double v = entry.value;
      if (v == 0.0) continue;
      const std::size_t k = entry.row;
      for (std::size_t r = 0; r < m; ++r) d[r] += binv_[r * m + k] * v;
    }
  } else {
    const std::size_t row = IsArtificial(col) ? col - n - m : col - n;
    const double sign = IsArtificial(col)
                            ? static_cast<double>(art_sign_[row])
                            : (form_.relation(row) == Relation::kLessEqual ? 1.0
                                                                          : -1.0);
    for (std::size_t r = 0; r < m; ++r) d[r] = sign * binv_[r * m + row];
  }
}

void SimplexState::Pivot(std::size_t leaving_row, std::size_t entering,
                         const std::vector<double>& d) {
  const std::size_t m = form_.num_rows();
  double* rowp = &binv_[leaving_row * m];
  const double inv = 1.0 / d[leaving_row];
  for (std::size_t k = 0; k < m; ++k) rowp[k] *= inv;
  xb_[leaving_row] *= inv;
  for (std::size_t r = 0; r < m; ++r) {
    if (r == leaving_row) continue;
    const double factor = d[r];
    if (factor == 0.0) continue;
    double* row = &binv_[r * m];
    for (std::size_t k = 0; k < m; ++k) row[k] -= factor * rowp[k];
    xb_[r] -= factor * xb_[leaving_row];
  }
  const std::size_t leaving_col = basis_[leaving_row];
  if (leaving_col < is_basic_.size()) is_basic_[leaving_col] = false;
  if (entering < is_basic_.size()) is_basic_[entering] = true;
  basis_[leaving_row] = entering;
}

std::size_t SimplexState::LeavingRow(const std::vector<double>& d,
                                     bool use_bland) const {
  const std::size_t m = form_.num_rows();
  // A banned basic column (artificial, or the surplus of an equality row)
  // sitting at (essentially) level zero leaves first when the entering
  // direction gives it a well-scaled pivot: the step is bounded degenerate
  // (see kDriveOutEps) and stops later pivots from drifting the banned
  // column positive. A tiny |d[r]| must not qualify — the entering value
  // xb/d could then be a real feasibility violation.
  for (std::size_t r = 0; r < m; ++r) {
    if (IsBannedBasic(basis_[r]) && std::abs(d[r]) > kDriveOutEps &&
        std::abs(xb_[r]) <= kEps)
      return r;
  }
  std::size_t leaving = m;
  double best_ratio = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < m; ++r) {
    const double coeff = d[r];
    if (coeff <= kEps) continue;
    const double ratio = std::max(xb_[r], 0.0) / coeff;
    if (leaving == m || ratio < best_ratio - kEps) {
      best_ratio = ratio;
      leaving = r;
    } else if (ratio < best_ratio + kEps) {
      // Near-tie: best_ratio tracks the true minimum (no upward drift).
      // Under Bland the smallest basis index among tied rows leaves;
      // otherwise the largest pivot element does, because a pivot on a
      // kEps-scale element turns a roundoff-level basic value into a real
      // feasibility violation.
      best_ratio = std::min(best_ratio, ratio);
      if (use_bland ? basis_[r] < basis_[leaving] : coeff > d[leaving])
        leaving = r;
    }
  }
  return leaving;
}

double SimplexState::BasicObjective() const {
  double objective = 0.0;
  for (std::size_t r = 0; r < form_.num_rows(); ++r)
    objective += ColumnCost(basis_[r], /*phase1=*/false) * xb_[r];
  return objective;
}

SimplexState::IterateResult SimplexState::Iterate(bool phase1) {
  const std::size_t m = form_.num_rows();
  const std::size_t n = form_.num_variables();
  const std::size_t width = n + m;  // structural + slack column ids
  // Dantzig until the threshold, then Bland's rule, which cannot cycle,
  // plus a generous hard cap so pathological numerics stall instead of
  // spinning (a warm solve then goes cold; a cold one fails a check).
  const std::size_t bland_threshold = 50 * (m + width);
  const std::size_t max_iterations = 200 * (m + width) + 1000;

  std::vector<double> y(m);
  std::vector<double> d(m);
  for (std::size_t iterations = 0;; ++iterations) {
    if (iterations > max_iterations) return IterateResult::kStalled;
    const bool use_bland = iterations > bland_threshold;
    if (!phase1 && BasicObjective() > cutoff_) return IterateResult::kCutoff;

    // y = c_B^T B^-1 (only rows with a costed basic column contribute).
    std::fill(y.begin(), y.end(), 0.0);
    for (std::size_t r = 0; r < m; ++r) {
      const double cost = ColumnCost(basis_[r], phase1);
      if (cost == 0.0) continue;
      const double* row = &binv_[r * m];
      for (std::size_t k = 0; k < m; ++k) y[k] += cost * row[k];
    }

    // Entering column: best positive reduced cost (first eligible under
    // Bland). Basic columns price to zero; skip them outright.
    std::size_t entering = width;
    double best = kEps;
    for (std::size_t col = 0; col < width; ++col) {
      if (is_basic_[col] || !ColumnAllowed(col, phase1)) continue;
      double dot = 0.0;
      if (col < n) {
        for (const StandardForm::Entry& entry : form_.column(col))
          dot += y[entry.row] * entry.value;
      } else {
        const std::size_t row = col - n;
        dot = (form_.relation(row) == Relation::kLessEqual ? 1.0 : -1.0) *
              y[row];
      }
      const double reduced = ColumnCost(col, phase1) - dot;
      if (reduced > best) {
        entering = col;
        if (use_bland) break;
        best = reduced;
      }
    }
    if (entering == width) return IterateResult::kOptimal;

    Ftran(entering, d);

    const std::size_t leaving = LeavingRow(d, use_bland);
    if (leaving == m) return IterateResult::kUnbounded;

    Pivot(leaving, entering, d);
    ++stats_.iterations;
    TSF_COUNTER_ADD("lp.iterations", 1);
  }
}

void SimplexState::ComputeBasicValues() {
  const std::size_t m = form_.num_rows();
  const std::vector<double>& b = form_.rhs();
  xb_.assign(m, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    const double* row = &binv_[r * m];
    double value = 0.0;
    for (std::size_t k = 0; k < m; ++k) value += row[k] * b[k];
    xb_[r] = value;
  }
}

bool SimplexState::Refactor() {
  const std::size_t m = form_.num_rows();
  const std::size_t n = form_.num_variables();
  // Assemble B column-by-column from the basis, then Gauss-Jordan invert
  // with partial pivoting.
  std::vector<double> work(m * m, 0.0);
  for (std::size_t c = 0; c < m; ++c) {
    const std::size_t col = basis_[c];
    if (col < n) {
      for (const StandardForm::Entry& entry : form_.column(col))
        work[entry.row * m + c] = entry.value;
    } else if (IsArtificial(col)) {
      const std::size_t row = col - n - m;
      work[row * m + c] = static_cast<double>(art_sign_[row]);
    } else {
      const std::size_t row = col - n;
      work[row * m + c] =
          form_.relation(row) == Relation::kLessEqual ? 1.0 : -1.0;
    }
  }
  binv_.assign(m * m, 0.0);
  for (std::size_t r = 0; r < m; ++r) binv_[r * m + r] = 1.0;
  for (std::size_t j = 0; j < m; ++j) {
    std::size_t pivot = j;
    for (std::size_t r = j + 1; r < m; ++r)
      if (std::abs(work[r * m + j]) > std::abs(work[pivot * m + j])) pivot = r;
    if (std::abs(work[pivot * m + j]) < 1e-11) return false;
    if (pivot != j) {
      // Only the elimination rows swap: Gauss-Jordan on [B | I] absorbs row
      // swaps into the product and yields B^-1 in the ORIGINAL basis-position
      // order, so basis_ (keyed by basis position) and art_sign_ (keyed by
      // constraint row) must not be permuted here.
      for (std::size_t k = 0; k < m; ++k) {
        std::swap(work[pivot * m + k], work[j * m + k]);
        std::swap(binv_[pivot * m + k], binv_[j * m + k]);
      }
    }
    const double inv = 1.0 / work[j * m + j];
    for (std::size_t k = 0; k < m; ++k) {
      work[j * m + k] *= inv;
      binv_[j * m + k] *= inv;
    }
    for (std::size_t r = 0; r < m; ++r) {
      if (r == j) continue;
      const double factor = work[r * m + j];
      if (factor == 0.0) continue;
      for (std::size_t k = 0; k < m; ++k) {
        work[r * m + k] -= factor * work[j * m + k];
        binv_[r * m + k] -= factor * binv_[j * m + k];
      }
    }
  }
  return true;
}

bool SimplexState::ApplyPendingColumnUpdates() {
  if (pending_.empty()) return true;
  const std::size_t m = form_.num_rows();
  // Basis position of each structural variable (kNoRow when nonbasic).
  std::vector<std::size_t> position(form_.num_variables(), kNoRow);
  for (std::size_t r = 0; r < m; ++r)
    if (basis_[r] < form_.num_variables()) position[basis_[r]] = r;

  std::vector<double> u(m);
  std::vector<double> rowp(m);
  bool need_refactor = false;
  for (const PendingColumn& pending : pending_) {
    const std::size_t pos = position[pending.variable];
    if (pos == kNoRow) continue;  // nonbasic: B is untouched
    // u = B^-1 * (new column - old column), sparse over the touched rows.
    std::fill(u.begin(), u.end(), 0.0);
    bool any = false;
    for (const auto& [row, old_value] : pending.old_values) {
      double current = 0.0;
      for (const StandardForm::Entry& entry : form_.column(pending.variable))
        if (entry.row == row) current = entry.value;
      const double delta = current - old_value;
      if (delta == 0.0) continue;
      any = true;
      for (std::size_t r = 0; r < m; ++r) u[r] += binv_[r * m + row] * delta;
    }
    if (!any) continue;
    const double beta = 1.0 + u[pos];
    if (std::abs(beta) < kSingularEps) {
      need_refactor = true;
      break;
    }
    // Sherman-Morrison: (B + delta e_pos^T)^-1 = B^-1 - (u rowp) / beta.
    std::copy(binv_.begin() + static_cast<std::ptrdiff_t>(pos * m),
              binv_.begin() + static_cast<std::ptrdiff_t>((pos + 1) * m),
              rowp.begin());
    for (std::size_t r = 0; r < m; ++r) {
      const double factor = u[r] / beta;
      if (factor == 0.0) continue;
      double* row = &binv_[r * m];
      for (std::size_t k = 0; k < m; ++k) row[k] -= factor * rowp[k];
    }
  }
  pending_.clear();
  if (need_refactor) return Refactor();
  return true;
}

bool SimplexState::BasicValuesFeasible() const {
  for (std::size_t r = 0; r < form_.num_rows(); ++r) {
    if (xb_[r] < -kFeasEps) return false;
    // A banned column basic at a real level means the equality (or
    // artificial) it stands for is violated.
    if (IsBannedBasic(basis_[r]) && xb_[r] > kFeasEps) return false;
  }
  return true;
}

bool SimplexState::WarmSolve() {
  if (!ApplyPendingColumnUpdates()) return false;
  ComputeBasicValues();
  // An infeasible warm basis would need phase 1; a banned column stuck basic
  // at a real level needs a cold solve to fix the basis structure.
  if (!BasicValuesFeasible()) return false;
  ++stats_.warm_solves;
  TSF_COUNTER_ADD("lp.warm_hits", 1);
  TSF_COUNTER_ADD("lp.phase1_skipped", 1);
  const IterateResult result = Iterate(/*phase1=*/false);
  if (result == IterateResult::kStalled) return false;
  if (result == IterateResult::kUnbounded) {
    solution_ = Solution{SolveStatus::kUnbounded, 0.0, {}};
    state_valid_ = false;
    return true;
  }
  // Iterate's ratio test tolerates kEps-scale drift; certify the basis
  // before reporting it, and let the cold path handle anything that drifted.
  if (!BasicValuesFeasible()) return false;
  ExtractSolution(result == IterateResult::kCutoff ? SolveStatus::kCutoff
                                                   : SolveStatus::kOptimal);
  return true;
}

void SimplexState::ColdSolve() {
  ++stats_.cold_solves;
  TSF_COUNTER_ADD("lp.cold_solves", 1);
  const std::size_t m = form_.num_rows();
  const std::size_t n = form_.num_variables();
  basis_.assign(m, 0);
  binv_.assign(m * m, 0.0);
  xb_.assign(m, 0.0);
  art_sign_.assign(m, 1);
  is_basic_.assign(n + m, false);

  // Starting basis: a row's own slack / surplus when it can sit at a
  // nonnegative level, an artificial (+/- e_row) otherwise.
  bool need_phase1 = false;
  for (std::size_t r = 0; r < m; ++r) {
    const double b = form_.rhs(r);
    const Relation relation = form_.relation(r);
    if (relation == Relation::kLessEqual && b >= 0.0) {
      basis_[r] = SlackCol(r);
      is_basic_[basis_[r]] = true;
      binv_[r * m + r] = 1.0;
      xb_[r] = b;
    } else if (relation == Relation::kGreaterEqual && b <= 0.0) {
      basis_[r] = SlackCol(r);
      is_basic_[basis_[r]] = true;
      binv_[r * m + r] = -1.0;
      xb_[r] = -b;
    } else {
      basis_[r] = ArtificialCol(r);
      art_sign_[r] = b < 0.0 ? -1 : 1;
      binv_[r * m + r] = static_cast<double>(art_sign_[r]);
      xb_[r] = std::abs(b);
      need_phase1 = true;
    }
  }

  if (need_phase1) {
    const IterateResult phase1 = Iterate(/*phase1=*/true);
    TSF_CHECK(phase1 != IterateResult::kUnbounded)
        << "phase 1 cannot be unbounded";
    TSF_CHECK(phase1 != IterateResult::kStalled)
        << "cold solve stalled in phase 1 (" << m << " rows, " << n
        << " columns)";
    double residual = 0.0;
    for (std::size_t r = 0; r < m; ++r)
      if (IsArtificial(basis_[r])) residual += std::max(xb_[r], 0.0);
    if (residual > kFeasEps) {
      solution_ = Solution{SolveStatus::kInfeasible, 0.0, {}};
      state_valid_ = false;
      return;
    }
    // Drive degenerate basic artificials out so phase 2 (and any warm
    // re-solve) starts from a clean basis; a row whose B^-1-row annihilates
    // every real column is redundant and keeps its zero-level artificial.
    std::vector<double> d(m);
    for (std::size_t r = 0; r < m; ++r) {
      if (!IsArtificial(basis_[r])) continue;
      for (std::size_t col = 0; col < n + m; ++col) {
        if (is_basic_[col] || !ColumnAllowed(col, /*phase1=*/false)) continue;
        double alpha = 0.0;
        if (col < n) {
          for (const StandardForm::Entry& entry : form_.column(col))
            alpha += binv_[r * m + entry.row] * entry.value;
        } else {
          const std::size_t row = col - n;
          alpha = (form_.relation(row) == Relation::kLessEqual ? 1.0 : -1.0) *
                  binv_[r * m + row];
        }
        if (std::abs(alpha) > kFeasEps) {
          Ftran(col, d);
          Pivot(r, col, d);
          break;
        }
      }
    }
  }

  const IterateResult phase2 = Iterate(/*phase1=*/false);
  TSF_CHECK(phase2 != IterateResult::kStalled)
      << "cold solve stalled in phase 2 (" << m << " rows, " << n
      << " columns)";
  if (phase2 == IterateResult::kUnbounded) {
    solution_ = Solution{SolveStatus::kUnbounded, 0.0, {}};
    state_valid_ = false;
    return;
  }
  // Degenerate pivoting that drifts a basic value out of tolerance needs a
  // Harris ratio test or periodic refactorization, not an uncertified
  // optimum.
  TSF_CHECK(BasicValuesFeasible())
      << "cold solve ended in phase 2 on an infeasible basis (" << m
      << " rows, " << n << " columns)";
  ExtractSolution(phase2 == IterateResult::kCutoff ? SolveStatus::kCutoff
                                                   : SolveStatus::kOptimal);
  state_valid_ = true;
}

void SimplexState::ExtractSolution(SolveStatus status) {
  const std::size_t n = form_.num_variables();
  solution_.status = status;
  solution_.x.assign(n, 0.0);
  for (std::size_t r = 0; r < form_.num_rows(); ++r) {
    if (basis_[r] >= n) continue;
    TSF_DCHECK_GE(xb_[r], -kFeasEps)
        << "basic variable " << basis_[r] << " below the clamp tolerance";
    solution_.x[basis_[r]] = std::max(0.0, xb_[r]);
  }
  double objective = 0.0;
  const std::vector<double>& c = form_.objective();
  for (std::size_t r = 0; r < form_.num_rows(); ++r)
    if (basis_[r] < n) objective += c[basis_[r]] * solution_.x[basis_[r]];
  solution_.objective = objective;
}

const Solution& SimplexState::Solve() {
  if (solution_valid_ && !dirty_) return solution_;
  TSF_TRACE_SCOPE("lp", "Solve");
  ++stats_.solves;
  warm_start_ready_ = false;
  bool done = false;
  if (state_valid_) {
    done = WarmSolve();
    if (!done) TSF_COUNTER_ADD("lp.warm_fallbacks", 1);
  }
  if (!done) {
    pending_.clear();
    ColdSolve();
  }
  dirty_ = false;
  solution_valid_ = true;
  return solution_;
}

bool SimplexState::RefreshWarmStart() {
  warm_start_ready_ = false;
  if (!state_valid_ || !pending_.empty()) return false;
  ComputeBasicValues();
  warm_start_ready_ = BasicValuesFeasible();
  return warm_start_ready_;
}

double SimplexState::RowDual(std::size_t row) const {
  const std::size_t m = form_.num_rows();
  TSF_CHECK_LT(row, m);
  if (!warm_start_ready_) return 0.0;
  double dual = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    const double cost = ColumnCost(basis_[r], /*phase1=*/false);
    if (cost != 0.0) dual += cost * binv_[r * m + row];
  }
  return dual;
}

std::optional<double> SimplexState::OnePivotCutoffObjective(
    std::size_t variable, double cutoff) const {
  const std::size_t m = form_.num_rows();
  const std::size_t n = form_.num_variables();
  TSF_CHECK_LT(variable, n);
  if (!warm_start_ready_ || !is_basic_[variable]) return std::nullopt;
  const std::size_t row = static_cast<std::size_t>(
      std::find(basis_.begin(), basis_.end(), variable) - basis_.begin());
  // Under this objective c_B . xb is the variable's own value, and
  // ExtractSolution reports it clamped at zero. Iterate checks the cutoff
  // before every pricing: here before and after the first pivot.
  if (xb_[row] > cutoff) return std::max(0.0, xb_[row]);

  // Iterate's first pricing (Dantzig). The only costed basic column sits in
  // `row`, so y = c_B B^-1 is that row of B^-1, and every nonbasic column
  // costs 0.
  const double* y = &binv_[row * m];
  const std::size_t width = n + m;
  std::size_t entering = width;
  double best = kEps;
  for (std::size_t col = 0; col < width; ++col) {
    if (is_basic_[col] || !ColumnAllowed(col, /*phase1=*/false)) continue;
    double dot = 0.0;
    if (col < n) {
      for (const StandardForm::Entry& entry : form_.column(col))
        dot += y[entry.row] * entry.value;
    } else {
      const std::size_t slack_row = col - n;
      dot = (form_.relation(slack_row) == Relation::kLessEqual ? 1.0 : -1.0) *
            y[slack_row];
    }
    const double reduced = 0.0 - dot;
    if (reduced > best) {
      entering = col;
      best = reduced;
    }
  }
  if (entering == width) return std::nullopt;  // the start is optimal
  std::vector<double> d(m);
  Ftran(entering, d);
  const std::size_t leaving = LeavingRow(d, /*use_bland=*/false);
  if (leaving == m || leaving == row) return std::nullopt;

  // Pivot's arithmetic on the basic values.
  std::vector<double> next = xb_;
  const double inv = 1.0 / d[leaving];
  next[leaving] *= inv;
  for (std::size_t r = 0; r < m; ++r) {
    if (r == leaving || d[r] == 0.0) continue;
    next[r] -= d[r] * next[leaving];
  }
  if (!(next[row] > cutoff)) return std::nullopt;
  // WarmSolve's BasicValuesFeasible on the basis after the pivot.
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t col = r == leaving ? entering : basis_[r];
    if (next[r] < -kFeasEps || (IsBannedBasic(col) && next[r] > kFeasEps))
      return std::nullopt;
  }
  return std::max(0.0, next[row]);
}

}  // namespace tsf::lp
