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

// B^-1 is stored column by column, each column padded with zeros to a
// multiple of kLane doubles, and so is every dense vector a kernel meets
// (xb_, the Ftran result, the Sherman-Morrison factors). The kernel below
// runs over whole padded columns. Its trip count is a multiple of kLane,
// which GCC can see, so it vectorizes at -O2: its very-cheap cost model
// refuses any loop that needs a scalar epilogue. It is element-wise and
// reorders no sum, and contraction is off (-ffp-contract=off), so each
// element gets the scalar loop's value.
constexpr std::size_t kLane = 8;

std::size_t PaddedLength(std::size_t m) {
  return (m + kLane - 1) / kLane * kLane;
}

// y += x * a over n doubles, n a multiple of kLane. `end` equals n; the
// rounding is what shows GCC that the trip count is a multiple of kLane.
// Subtracting is AddScaled with -a: x * (-a) is exactly -(x * a) and
// y + (-t) is exactly y - t, signed zeros included.
void AddScaled(double* __restrict y, const double* __restrict x, double a,
               std::size_t n) {
  TSF_DCHECK_EQ(n % kLane, 0u);
  const std::size_t end = n / kLane * kLane;
  for (std::size_t i = 0; i < end; ++i) y[i] += x[i] * a;
}

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

SimplexState::SimplexState(StandardForm form)
    : form_(std::move(form)), stride_(PaddedLength(form_.num_rows())) {
  TSF_CHECK(form_.finalized()) << "SimplexState needs a finalized form";
  slack_sign_.resize(form_.num_rows());
  for (std::size_t row = 0; row < form_.num_rows(); ++row)
    slack_sign_[row] = form_.relation(row) == Relation::kLessEqual ? 1.0 : -1.0;
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
  d.assign(stride_, 0.0);
  if (col < n) {
    for (const StandardForm::Entry& entry : form_.column(col)) {
      if (entry.value == 0.0) continue;
      AddScaled(d.data(), &binv_[entry.row * stride_], entry.value, stride_);
    }
  } else {
    const std::size_t row = IsArtificial(col) ? col - n - m : col - n;
    const double sign = IsArtificial(col)
                            ? static_cast<double>(art_sign_[row])
                            : slack_sign_[row];
    const double* binv_col = &binv_[row * stride_];
    for (std::size_t r = 0; r < m; ++r) d[r] = sign * binv_col[r];
  }
}

void SimplexState::Pivot(std::size_t leaving_row, std::size_t entering,
                         const std::vector<double>& d) {
  const std::size_t m = form_.num_rows();
  const double inv = 1.0 / d[leaving_row];
  // Column by column: the leaving-row entry becomes p = entry * inv and the
  // rest of the column loses d * p. A column with p == 0 does not change, so
  // a pivot costs m per nonzero of the pivot row. stride and binv are locals
  // because read through `this` here, GCC loses that the kernel's trip
  // count is a multiple of kLane and leaves it scalar.
  const std::size_t stride = stride_;
  double* const binv = binv_.data();
  for (std::size_t k = 0; k < m; ++k) {
    double* binv_col = binv + k * stride;
    const double p = binv_col[leaving_row] * inv;
    if (p != 0.0) AddScaled(binv_col, d.data(), -p, stride);
    binv_col[leaving_row] = p;
  }
  xb_[leaving_row] *= inv;
  for (std::size_t r = 0; r < m; ++r) {
    if (r == leaving_row || d[r] == 0.0) continue;
    xb_[r] -= d[r] * xb_[leaving_row];
  }
  const std::size_t leaving_col = basis_[leaving_row];
  if (leaving_col < is_basic_.size()) is_basic_[leaving_col] = 0;
  if (entering < is_basic_.size()) is_basic_[entering] = 1;
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
  std::vector<double> d(stride_);
  std::vector<std::pair<std::size_t, double>> costed;  // (row, c_B[row])
  for (std::size_t iterations = 0;; ++iterations) {
    if (iterations > max_iterations) return IterateResult::kStalled;
    const bool use_bland = iterations > bland_threshold;
    if (!phase1 && BasicObjective() > cutoff_) return IterateResult::kCutoff;

    // y = c_B^T B^-1: y[k] sums c_B[r] * B^-1[r][k] over the rows with a
    // costed basic column, in row order, reading column k of B^-1.
    costed.clear();
    for (std::size_t r = 0; r < m; ++r) {
      const double cost = ColumnCost(basis_[r], phase1);
      if (cost != 0.0) costed.emplace_back(r, cost);
    }
    for (std::size_t k = 0; k < m; ++k) {
      const double* binv_col = &binv_[k * stride_];
      double sum = 0.0;
      for (const auto& [r, cost] : costed) sum += cost * binv_col[r];
      y[k] = sum;
    }

    const std::size_t entering =
        PriceEntering(y, /*zero_costs=*/phase1, use_bland);
    if (entering == width) return IterateResult::kOptimal;

    Ftran(entering, d);

    const std::size_t leaving = LeavingRow(d, use_bland);
    if (leaving == m) return IterateResult::kUnbounded;

    Pivot(leaving, entering, d);
    ++stats_.iterations;
    TSF_COUNTER_ADD("lp.iterations", 1);
  }
}

std::size_t SimplexState::PriceEntering(const std::vector<double>& y,
                                       bool zero_costs, bool use_bland) const {
  const std::size_t m = form_.num_rows();
  const std::size_t n = form_.num_variables();
  const std::vector<double>& objective = form_.objective();
  // Best positive reduced cost (first eligible under Bland) over the column
  // ids in order: structural columns, then logical ones. Basic columns
  // price to zero; skip them outright. Logical columns cost 0; structural
  // ones cost 0 under `zero_costs` (phase 1) and their objective otherwise.
  std::size_t entering = n + m;
  double best = kEps;
  for (std::size_t col = 0; col < n; ++col) {
    if (is_basic_[col]) continue;
    double dot = 0.0;
    for (const StandardForm::Entry& entry : form_.column(col))
      dot += y[entry.row] * entry.value;
    const double reduced = (zero_costs ? 0.0 : objective[col]) - dot;
    if (reduced > best) {
      entering = col;
      if (use_bland) return entering;
      best = reduced;
    }
  }
  for (std::size_t row = 0; row < m; ++row) {
    if (is_basic_[n + row] || form_.relation(row) == Relation::kEqual) continue;
    const double reduced = 0.0 - slack_sign_[row] * y[row];
    if (reduced > best) {
      entering = n + row;
      if (use_bland) return entering;
      best = reduced;
    }
  }
  return entering;
}

void SimplexState::ComputeBasicValues() {
  const std::size_t m = form_.num_rows();
  const std::vector<double>& b = form_.rhs();
  // xb_ = sum over k of b[k] * (column k of B^-1), in column order. A zero
  // rhs (the coupling and active rows) adds nothing.
  xb_.assign(stride_, 0.0);
  for (std::size_t k = 0; k < m; ++k)
    if (b[k] != 0.0) AddScaled(xb_.data(), &binv_[k * stride_], b[k], stride_);
}

bool SimplexState::Refactor() {
  const std::size_t m = form_.num_rows();
  const std::size_t n = form_.num_variables();
  // Assemble B column-by-column from the basis, then Gauss-Jordan invert
  // with partial pivoting. Both work on row-major temporaries; the inverse
  // is transposed into the padded column-major binv_ at the end.
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
      work[row * m + c] = slack_sign_[row];
    }
  }
  std::vector<double> inverse(m * m, 0.0);
  for (std::size_t r = 0; r < m; ++r) inverse[r * m + r] = 1.0;
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
        std::swap(inverse[pivot * m + k], inverse[j * m + k]);
      }
    }
    const double inv = 1.0 / work[j * m + j];
    for (std::size_t k = 0; k < m; ++k) {
      work[j * m + k] *= inv;
      inverse[j * m + k] *= inv;
    }
    for (std::size_t r = 0; r < m; ++r) {
      if (r == j) continue;
      const double factor = work[r * m + j];
      if (factor == 0.0) continue;
      for (std::size_t k = 0; k < m; ++k) {
        work[r * m + k] -= factor * work[j * m + k];
        inverse[r * m + k] -= factor * inverse[j * m + k];
      }
    }
  }
  binv_.assign(m * stride_, 0.0);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t k = 0; k < m; ++k)
      binv_[k * stride_ + r] = inverse[r * m + k];
  return true;
}

bool SimplexState::ApplyPendingColumnUpdates() {
  if (pending_.empty()) return true;
  const std::size_t m = form_.num_rows();
  // Basis position of each structural variable (kNoRow when nonbasic).
  std::vector<std::size_t> position(form_.num_variables(), kNoRow);
  for (std::size_t r = 0; r < m; ++r)
    if (basis_[r] < form_.num_variables()) position[basis_[r]] = r;

  std::vector<double> u(stride_);
  std::vector<double> factor(stride_);
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
      AddScaled(u.data(), &binv_[row * stride_], delta, stride_);
    }
    if (!any) continue;
    const double beta = 1.0 + u[pos];
    if (std::abs(beta) < kSingularEps) {
      need_refactor = true;
      break;
    }
    // Sherman-Morrison: (B + delta e_pos^T)^-1 = B^-1 - (u / beta) rowp,
    // rowp the old row `pos` of B^-1. Column k loses (u / beta) * rowp[k];
    // it reads its own rowp[k] before changing it.
    for (std::size_t r = 0; r < stride_; ++r) factor[r] = u[r] / beta;
    for (std::size_t k = 0; k < m; ++k) {
      double* binv_col = &binv_[k * stride_];
      const double p = binv_col[pos];
      if (p != 0.0) AddScaled(binv_col, factor.data(), -p, stride_);
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
  binv_.assign(m * stride_, 0.0);
  xb_.assign(stride_, 0.0);
  art_sign_.assign(m, 1);
  is_basic_.assign(n + m, 0);

  // Starting basis: a row's own slack / surplus when it can sit at a
  // nonnegative level, an artificial (+/- e_row) otherwise.
  bool need_phase1 = false;
  for (std::size_t r = 0; r < m; ++r) {
    const double b = form_.rhs(r);
    const Relation relation = form_.relation(r);
    if (relation == Relation::kLessEqual && b >= 0.0) {
      basis_[r] = SlackCol(r);
      is_basic_[basis_[r]] = 1;
      binv_[r * stride_ + r] = 1.0;
      xb_[r] = b;
    } else if (relation == Relation::kGreaterEqual && b <= 0.0) {
      basis_[r] = SlackCol(r);
      is_basic_[basis_[r]] = 1;
      binv_[r * stride_ + r] = -1.0;
      xb_[r] = -b;
    } else {
      basis_[r] = ArtificialCol(r);
      art_sign_[r] = b < 0.0 ? -1 : 1;
      binv_[r * stride_ + r] = static_cast<double>(art_sign_[r]);
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
    std::vector<double> d(stride_);
    for (std::size_t r = 0; r < m; ++r) {
      if (!IsArtificial(basis_[r])) continue;
      for (std::size_t col = 0; col < n + m; ++col) {
        if (is_basic_[col] || !ColumnAllowed(col, /*phase1=*/false)) continue;
        double alpha = 0.0;
        if (col < n) {
          for (const StandardForm::Entry& entry : form_.column(col))
            alpha += binv_[entry.row * stride_ + r] * entry.value;
        } else {
          const std::size_t row = col - n;
          alpha = slack_sign_[row] * binv_[row * stride_ + r];
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
  const double* binv_col = &binv_[row * stride_];
  double dual = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    const double cost = ColumnCost(basis_[r], /*phase1=*/false);
    if (cost != 0.0) dual += cost * binv_col[r];
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
  std::vector<double> y(m);
  for (std::size_t k = 0; k < m; ++k) y[k] = binv_[k * stride_ + row];
  const std::size_t entering =
      PriceEntering(y, /*zero_costs=*/true, /*use_bland=*/false);
  if (entering == n + m) return std::nullopt;  // the start is optimal
  std::vector<double> d(stride_);
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
