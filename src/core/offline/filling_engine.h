// Shared warm-started LP engine for progressive filling (Algorithm 1).
//
// Both the single-class engine (progressive_filling.cc) and multi-class TSF
// (multiclass.cc) run the same loop: one round LP that raises every active
// user's share to a common level s, then a FREEZE step that decides, for
// every active user, whether its share can still rise. FillingEngine owns
// that loop's LPs and the freeze decision. It builds one StandardForm per
// filling run:
//
//   * columns: the task variables x, one share column u_i per user, and
//     the level s;
//   * coupling rows `terms · x - share_coeff · u_i >= 0` (one per
//     single-class user, one per class for a multi-class user);
//   * an active row `u_i - s >= 0` per user, and one level row `s >= L`;
//   * the capacity rows.
//
// There are no equality rows, so the all-slack basis is feasible and the
// first round's cold solve skips phase 1. After every round the level row's
// rhs L becomes the solved level: the level never falls, so this cuts off
// no later optimum.
//
// Every later LP of the run re-solves warm from the round optimum, because
// neither a probe nor a freeze invalidates the basis (see lp/revised.h):
//
//   * a probe for user j copies the solved round state and replaces the
//     objective s with u_j. B^-1 and the basic solution are unchanged, so
//     phase 2 resumes from the round optimum. The other active users keep
//     u_i >= s >= level, the same floors as holding them at the round
//     level. A probe only has to decide whether u_j can exceed the
//     saturation threshold level + kShareEps * max(1, level), so it stops
//     at the first basis that does (an objective cutoff);
//   * freezing user i pivots its active row's surplus into the basis, zeroes
//     s's coefficient in that row (a Sherman-Morrison update with beta = 1,
//     since the row's own surplus is basic) and sets the row's rhs to the
//     round level: `u_i >= level`. With L already at the level, the pivot
//     keeps s >= level and hence u_i >= level, so the raised rhs leaves the
//     basis feasible.
//
// The freeze decision is the paper's: an active user saturates when its
// probe cannot lift it above the threshold. Most users are decided from
// the solved round state itself, without copying it, by one of two
// certificates (lp::SimplexState's basis queries, on the basic values
// refreshed once per round for the level row's raised rhs):
//
//   * dual freeze (`filling.dual_freezes`): the round objective is s alone,
//     so the dual of j's active row is an entry of the row of B^-1 where s
//     is basic. If its magnitude exceeds 1e-9, complementary slackness
//     holds u_j = s = level in every optimum of the round LP, so u_j cannot
//     rise while the others hold the level: j is saturated;
//   * one-pivot witness (`filling.step_witnesses`): the probe's first
//     phase-2 iteration, replayed on the round basis (same pricing, ratio
//     test, pivot arithmetic and feasibility check). If it lifts u_j past
//     the threshold, that value is exactly what the probe would report.
//
// Every other active user gets a full probe (`filling.probes`), as does
// every user of a round whose refreshed basic values fail the warm path's
// feasibility check. Exact arithmetic guarantees one saturated user per
// round; if round-off hides it, every active user is re-probed without the
// cutoff and the one with the smallest exact gap is frozen.
//
// Probes run one after another on a single scratch state: the first probe
// copies the round state into it, and each later one copy-assigns into the
// same storage instead of allocating a new state.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "lp/revised.h"

namespace tsf {

// One coupling row of a user: `terms · x >= share_coeff * u_i`. A
// single-class user has one row; a multi-class user has one row per class
// with share_coeff = mix_ic * H_i * w_i, so a share floor on u_i keeps the
// class mix.
struct FillingCouplingRow {
  std::vector<std::pair<std::size_t, double>> terms;
  double share_coeff = 1.0;
};

struct FillingCapacityRow {
  std::vector<std::pair<std::size_t, double>> terms;
  double capacity = 0.0;
};

struct FillingSpec {
  std::size_t num_structural = 0;                        // task variables x
  std::vector<std::vector<FillingCouplingRow>> user_rows; // per user
  std::vector<FillingCapacityRow> capacity;
};

class FillingEngine {
 public:
  // share_coeff must be strictly positive for every coupling row.
  explicit FillingEngine(const FillingSpec& spec);

  std::size_t num_users() const { return frozen_.size(); }

  // Maximizes the level every active user's share reaches under the current
  // freezes. Returns false when the program is infeasible; otherwise stores
  // the level and, if x is non-null, the task values (x[v] for v <
  // num_structural).
  bool SolveRound(double* level, std::vector<double>* x);

  // The FREEZE step of the solved round: decides every active user from
  // the round basis or, failing that, a probe, freezes the ones that
  // saturate at the round level, and returns them in index order (never
  // empty while a user is active). The decisions are those of probing
  // every active user.
  std::vector<std::size_t> FreezeSaturatedUsers();

  // Permanently freezes user j with share floor `floor` (u_j >= floor).
  // Affects every later SolveRound and probe.
  void FreezeUser(std::size_t j, double floor);

  // For every user j with probe[j] set, the largest share j can reach while
  // every other active user keeps the solved round's level (frozen users
  // keep their floors). With stop_at_threshold, a probe stops at the first
  // basis above the saturation threshold and reports that basis's share, a
  // lower bound on the maximum that still decides saturation. Call only
  // after a successful SolveRound. Results land in (*max_share)[j];
  // non-probed slots are 0.
  void ProbeMaxShares(const std::vector<bool>& probe, bool stop_at_threshold,
                      std::vector<double>* max_share);

 private:
  lp::SimplexState BuildState(const FillingSpec& spec);
  double SaturationThreshold() const;
  // One full probe: user j's share from a warm re-solve of the round state
  // for max u_j with objective cutoff `cutoff`.
  double ProbeShare(std::size_t j, double cutoff);
  // Solves `state`; false when infeasible. Stores the objective (the level
  // in a round, u_j in a probe) and, if x is non-null, the task values.
  bool SolveState(lp::SimplexState& state, double* objective,
                  std::vector<double>* x) const;

  std::size_t num_structural_ = 0;
  std::size_t level_var_ = 0;                // column of s
  std::vector<std::size_t> active_row_;      // per user: u_i - s >= 0
  std::size_t level_row_ = 0;                // s >= L
  std::vector<bool> frozen_;
  double level_ = 0.0;                       // of the last solved round
  lp::SimplexState state_;
  std::optional<lp::SimplexState> scratch_;  // made by the first probe
};

}  // namespace tsf
