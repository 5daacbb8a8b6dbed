// Revised simplex with explicit basis state and warm-start re-solve.
//
// This is the LP solver behind the paper's offline progressive-filling
// algorithm (Algorithm 1): every round and every FREEZE probe solves
//
//   maximize    c · x
//   subject to  A x {<=, =, >=} b,   x >= 0
//
// over one StandardForm (standard_form.h). SimplexState pairs that form with
// the factorized state of its last solve: the basis (which column is basic
// in each row), a dense inverse of the basis matrix, and the basic variable
// values. The inverse is stored column-major, each column zero-padded to a
// multiple of 8 doubles, so that FTRAN, the pivot update, B^-1 b and
// Sherman-Morrison are each a loop of one element-wise kernel over whole
// columns, which the compiler vectorizes at -O2; each kernel computes every
// element from the same operands in the same order as a scalar row-major
// loop, so the pivots and values do not depend on the layout (DESIGN.md §8).
// Re-solving after a shape-preserving mutation is then incremental:
//
//   * rhs change — the basis matrix is untouched; the basic values are
//     refreshed with one B^-1 b product (O(m^2));
//   * objective change — B^-1 and the basic values are untouched; phase 2
//     re-prices from the previous optimum;
//   * coefficient change in a nonbasic column — free: B^-1 is unaffected;
//   * coefficient change in a basic column — a rank-one Sherman-Morrison
//     update of B^-1 (O(m^2) per changed column). The updated basis is
//     singular when the changed column falls into the span of the other
//     basic columns — e.g. zeroing its coefficient in a row no other basic
//     column covers. EnterSlack(row) first pivots the row's own slack into
//     the basis, after which any coefficient change in that row updates
//     B^-1 with denominator beta = 1.
//
// If the refreshed basic values are still feasible, phase 1 is skipped and
// phase 2 re-optimizes from the previous basis. A mutation can leave that
// basis infeasible — an rhs raised past the current point, or a coefficient
// change that moves the basic solution — and then the warm path gives up:
// anything it cannot certify (a near-singular rank-one update, an
// infeasible warm basis, a banned column stuck basic at a nonzero level,
// iteration blowup) falls back to a from-scratch two-phase revised solve.
// A cold solve starts from the all-slack basis and runs phase 1 only when
// some row cannot hold its slack at a nonnegative level (an equality, or a
// >= row with a positive rhs). Pivoting uses Dantzig's rule with a Bland's
// rule fallback after an iteration threshold. A cold solve that still
// stalls, or ends on a basis it cannot certify, is a check failure: there
// is no second solver to hand it to.
//
// An objective cutoff (SetObjectiveCutoff) stops phase 2 at the first
// feasible basis whose objective exceeds it; Solve then reports kCutoff. A
// caller that only needs to know whether the optimum clears a threshold
// stops there instead of pivoting on to the optimum.
//
// Queries on the last solve's basis answer questions about nearby programs
// without copying or re-solving the state: RefreshWarmStart recomputes the
// basic values for the current rhs as a warm re-solve starts by doing, and
// on those values RowDual gives a row's dual value and
// OnePivotCutoffObjective replays the first pivot of a warm re-solve under
// a unit objective and a cutoff. The replay calls Iterate's own pricing,
// FTRAN and ratio test and mirrors Pivot's arithmetic on the basic values
// and WarmSolve's feasibility check, so what it reports is what that
// re-solve would report, bit for bit (tests/lp_differential_test.cc holds
// it to the solve).
//
// Telemetry (all macro-gated, see telemetry/telemetry.h): `lp.iterations`,
// `lp.warm_hits`, `lp.phase1_skipped`, `lp.cold_solves`,
// `lp.warm_fallbacks`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lp/standard_form.h"

namespace tsf::lp {

// kCutoff: phase 2 stopped at a feasible basis whose objective exceeds the
// objective cutoff, so the optimum is at least that large.
enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kCutoff };

std::string ToString(SolveStatus status);

struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;      // valid iff status is kOptimal or kCutoff
  std::vector<double> x;       // primal values, one per variable

  bool optimal() const { return status == SolveStatus::kOptimal; }
};

// Counters for one SimplexState (process-wide totals go to telemetry).
struct ResolveStats {
  std::uint64_t solves = 0;
  std::uint64_t warm_solves = 0;   // phase 1 skipped, prior basis reused
  std::uint64_t cold_solves = 0;   // full two-phase revised solve
  std::uint64_t iterations = 0;    // simplex pivots across all solves
};

class SimplexState {
 public:
  // Takes ownership of a finalized form. Copyable: copying a solved state
  // is how FREEZE probes branch off a round LP without re-solving it, and
  // copy-assigning into a state of the same shape reuses its storage.
  explicit SimplexState(StandardForm form);

  const StandardForm& form() const { return form_; }

  // Shape-preserving mutations, forwarded to the form with the bookkeeping
  // the warm path needs. Cheap; the actual re-solve happens in Solve().
  void SetRhs(std::size_t row, double rhs);
  void SetCoefficient(std::size_t row, std::size_t variable, double value);
  void SetObjectiveCoefficient(std::size_t variable, double coefficient);

  // Stops phase 2 at the first feasible basis whose objective exceeds
  // `cutoff` (Solve then reports kCutoff with that basis's solution).
  // +infinity, the default, solves to optimality.
  void SetObjectiveCutoff(double cutoff);

  // Pivots the slack (or surplus) of inequality row `row` into the basis
  // with a primal ratio test, after folding in any pending mutation. The
  // basic solution stays feasible; the objective may fall. Afterwards a
  // coefficient change in `row` updates B^-1 with beta = 1 instead of
  // risking a singular basis. A no-op when the slack is already basic or
  // there is no basis to keep; when the pivot cannot be made, the next
  // Solve is cold.
  void EnterSlack(std::size_t row);

  // Solves (or incrementally re-solves) the current program. The returned
  // reference stays valid until the next mutation or Solve call.
  const Solution& Solve();

  const ResolveStats& stats() const { return stats_; }

  // Recomputes the basic values B^-1 b for the current rhs, as a warm
  // re-solve starts by doing (the basis and B^-1 stay). True when that
  // re-solve would go on from them: the last solve left a basis, no
  // coefficient change is pending, and the values pass the warm path's
  // feasibility check. Until the next rhs or coefficient change, EnterSlack
  // or Solve, the two queries below answer from these values; otherwise
  // they return 0 and nullopt.
  bool RefreshWarmStart();

  // The dual value (c_B B^-1)_row of `row` under the current objective. On
  // an optimal basis a nonzero dual holds the row tight in every optimum
  // (complementary slackness).
  double RowDual(std::size_t row) const;

  // Replays a warm re-solve of `maximize x_variable` (cost 1 on that
  // structural variable, 0 on every other) with objective cutoff `cutoff`.
  // If that re-solve stops at the cutoff before or right after its first
  // pivot, returns the objective it would report, bit for bit; otherwise
  // nullopt. Also nullopt when `variable` is nonbasic or the pivot moves it
  // out of the basis.
  std::optional<double> OnePivotCutoffObjective(std::size_t variable,
                                                double cutoff) const;

 private:
  enum class IterateResult { kOptimal, kUnbounded, kStalled, kCutoff };

  // Column id space: [0, n) structural, [n, n+m) logical slack/surplus,
  // [n+m, n+2m) artificial (implicit +/- e_row columns, phase 1 only).
  std::size_t SlackCol(std::size_t row) const;
  std::size_t ArtificialCol(std::size_t row) const;
  bool IsArtificial(std::size_t col) const;
  bool ColumnAllowed(std::size_t col, bool phase1) const;
  bool IsBannedBasic(std::size_t col) const;
  double ColumnCost(std::size_t col, bool phase1) const;

  // d := B^-1 * (column `col` of the full matrix), padded to stride_.
  void Ftran(std::size_t col, std::vector<double>& d) const;
  void Pivot(std::size_t leaving_row, std::size_t entering,
             const std::vector<double>& d);
  // Ratio test for entering direction d; num_rows() when unbounded.
  std::size_t LeavingRow(const std::vector<double>& d, bool use_bland) const;
  double BasicObjective() const;    // c_B . xb_
  // Entering column for duals y (Dantzig; the first eligible column under
  // Bland); num_variables() + num_rows() when none prices positive. Under
  // `zero_costs` (phase 1, and the replay's unit objective) every nonbasic
  // column costs 0.
  std::size_t PriceEntering(const std::vector<double>& y, bool zero_costs,
                            bool use_bland) const;
  IterateResult Iterate(bool phase1);

  void ComputeBasicValues();        // xb_ = binv_ * rhs
  bool BasicValuesFeasible() const; // xb_ within tolerance, no banned basics up
  bool Refactor();                  // rebuild binv_ from basis_; false if singular
  bool ApplyPendingColumnUpdates(); // Sherman-Morrison; false if refactor failed
  bool WarmSolve();                 // false => caller must cold-solve
  void ColdSolve();
  void ExtractSolution(SolveStatus status);

  StandardForm form_;
  Solution solution_;
  bool solution_valid_ = false;
  bool dirty_ = true;       // form mutated since last Solve
  bool state_valid_ = false;
  bool warm_start_ready_ = false;  // RefreshWarmStart succeeded, still valid
  double cutoff_ = std::numeric_limits<double>::infinity();

  std::vector<std::size_t> basis_;  // column id basic in each row
  // B^-1, column-major: column k (B^-1 e_k) is binv_[k * stride_, + m),
  // zero-padded to stride_, a multiple of 8 (see revised.cc). xb_ and the
  // Ftran results are padded to stride_ too.
  std::size_t stride_;
  std::vector<double> binv_;
  std::vector<double> xb_;              // basic variable values, B^-1 b
  std::vector<int> art_sign_;           // artificial column signs (+/- e_row)
  std::vector<std::uint8_t> is_basic_;  // by column id, structural + slack
  std::vector<double> slack_sign_;      // by row: +1 for <=, -1 for >= and =

  // Structural columns touched since the last solve, with the value each
  // touched slot held at solve time (to form Sherman-Morrison deltas).
  struct PendingColumn {
    std::size_t variable;
    std::vector<std::pair<std::size_t, double>> old_values;  // (row, value)
  };
  std::vector<PendingColumn> pending_;

  ResolveStats stats_;
};

}  // namespace tsf::lp
