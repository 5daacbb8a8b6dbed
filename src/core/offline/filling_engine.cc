#include "core/offline/filling_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/log.h"

namespace tsf {
namespace {

// Two shares within this distance are "equal" for saturation decisions.
constexpr double kShareEps = 1e-7;

// An active row whose dual exceeds this in magnitude holds its user at the
// level in every optimum of the round LP (complementary slackness).
constexpr double kDualEps = 1e-9;

}  // namespace

FillingEngine::FillingEngine(const FillingSpec& spec)
    : frozen_(spec.user_rows.size(), false), state_(BuildState(spec)) {}

lp::SimplexState FillingEngine::BuildState(const FillingSpec& spec) {
  TSF_CHECK_GT(spec.num_structural, 0u);
  TSF_CHECK(!spec.user_rows.empty());
  const std::size_t n = spec.user_rows.size();
  num_structural_ = spec.num_structural;
  level_var_ = num_structural_ + n;

  lp::StandardForm form(level_var_ + 1);
  form.SetObjectiveCoefficient(level_var_, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    TSF_CHECK(!spec.user_rows[i].empty()) << "user " << i << " has no rows";
    for (const FillingCouplingRow& row : spec.user_rows[i]) {
      TSF_CHECK_GT(row.share_coeff, 0.0);
      std::vector<std::pair<std::size_t, double>> terms = row.terms;
      terms.emplace_back(num_structural_ + i, -row.share_coeff);
      form.AddRow(terms, lp::Relation::kGreaterEqual, 0.0);
    }
  }
  active_row_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    active_row_[i] =
        form.AddRow({{num_structural_ + i, 1.0}, {level_var_, -1.0}},
                    lp::Relation::kGreaterEqual, 0.0);
  level_row_ =
      form.AddRow({{level_var_, 1.0}}, lp::Relation::kGreaterEqual, 0.0);
  for (const FillingCapacityRow& row : spec.capacity) {
    if (row.terms.empty()) continue;  // no eligible user consumes this slot
    form.AddRow(row.terms, lp::Relation::kLessEqual, row.capacity);
  }
  form.Finalize();
  return lp::SimplexState(std::move(form));
}

double FillingEngine::SaturationThreshold() const {
  return level_ + kShareEps * std::max(1.0, level_);
}

bool FillingEngine::SolveState(lp::SimplexState& state, double* objective,
                               std::vector<double>* x) const {
  const lp::Solution& solution = state.Solve();
  if (solution.status != lp::SolveStatus::kOptimal &&
      solution.status != lp::SolveStatus::kCutoff)
    return false;
  *objective = solution.objective;
  if (x != nullptr)
    x->assign(solution.x.begin(),
              solution.x.begin() +
                  static_cast<std::ptrdiff_t>(num_structural_));
  return true;
}

bool FillingEngine::SolveRound(double* level, std::vector<double>* x) {
  TSF_CHECK(level != nullptr);
  TSF_TRACE_SCOPE("filling", "SolveRound");
  if (!SolveState(state_, level, x)) return false;
  level_ = *level;
  state_.SetRhs(level_row_, level_);
  return true;
}

void FillingEngine::FreezeUser(std::size_t j, double floor) {
  TSF_CHECK_LT(j, num_users());
  TSF_CHECK(!frozen_[j]) << "user " << j << " frozen twice";
  frozen_[j] = true;
  const std::size_t row = active_row_[j];
  state_.EnterSlack(row);
  state_.SetCoefficient(row, level_var_, 0.0);
  state_.SetRhs(row, floor);
}

std::vector<std::size_t> FillingEngine::FreezeSaturatedUsers() {
  TSF_TRACE_SCOPE("filling", "FreezeSaturatedUsers");
  const std::size_t n = num_users();
  std::vector<bool> active(n);
  for (std::size_t j = 0; j < n; ++j) active[j] = !frozen_[j];

  // Each active user's share as a cutoff probe decides it. The round basis
  // answers most users without one: a nonzero dual on the active row pins
  // the user at the level, and a replayed first pivot that lifts it past
  // the threshold is the share the probe would report.
  const double cutoff = SaturationThreshold();
  const bool certify = state_.RefreshWarmStart();
  std::vector<double> max_share(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    if (!active[j]) continue;
    if (certify) {
      if (std::abs(state_.RowDual(active_row_[j])) > kDualEps) {
        TSF_COUNTER_ADD("filling.dual_freezes", 1);
        max_share[j] = level_;
        continue;
      }
      if (const std::optional<double> lifted =
              state_.OnePivotCutoffObjective(num_structural_ + j, cutoff)) {
        TSF_COUNTER_ADD("filling.step_witnesses", 1);
        max_share[j] = *lifted;
        continue;
      }
    }
    max_share[j] = ProbeShare(j, cutoff);
  }

  // An active user saturates if, holding the others at the round level,
  // its share cannot rise above it.
  const double tolerance = kShareEps * std::max(1.0, level_);
  std::vector<std::size_t> saturated;
  for (std::size_t j = 0; j < n; ++j)
    if (active[j] && max_share[j] - level_ <= tolerance) saturated.push_back(j);

  // Exact arithmetic guarantees at least one saturated user per round; if
  // round-off hid it, freeze the user with the smallest exact gap so the
  // loop always progresses.
  if (saturated.empty()) {
    ProbeMaxShares(active, /*stop_at_threshold=*/false, &max_share);
    double closest_gap = std::numeric_limits<double>::infinity();
    std::size_t closest = n;
    for (std::size_t j = 0; j < n; ++j) {
      if (active[j] && max_share[j] - level_ < closest_gap) {
        closest_gap = max_share[j] - level_;
        closest = j;
      }
    }
    TSF_CHECK_LT(closest, n) << "FREEZE step with no active user";
    TSF_LOG(DEBUG) << "freeze fallback: user " << closest << " gap "
                   << closest_gap;
    saturated.push_back(closest);
  }
  for (const std::size_t j : saturated) FreezeUser(j, level_);
  return saturated;
}

void FillingEngine::ProbeMaxShares(const std::vector<bool>& probe,
                                   bool stop_at_threshold,
                                   std::vector<double>* max_share) {
  const std::size_t n = num_users();
  TSF_CHECK_EQ(probe.size(), n);
  TSF_CHECK(max_share != nullptr);
  TSF_TRACE_SCOPE("filling", "ProbeMaxShares");
  max_share->assign(n, 0.0);

  const double cutoff = stop_at_threshold
                            ? SaturationThreshold()
                            : std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < n; ++j)
    if (probe[j]) (*max_share)[j] = ProbeShare(j, cutoff);
}

double FillingEngine::ProbeShare(std::size_t j, double cutoff) {
  TSF_TRACE_SCOPE("filling", "FreezeProbe");
  TSF_COUNTER_ADD("filling.probes", 1);
  scratch_ = state_;  // copy-assigns once the first probe has made it
  lp::SimplexState& probe_state = *scratch_;
  probe_state.SetObjectiveCoefficient(level_var_, 0.0);
  probe_state.SetObjectiveCoefficient(num_structural_ + j, 1.0);
  probe_state.SetObjectiveCutoff(cutoff);
  [[maybe_unused]] const std::uint64_t cold_before =
      probe_state.stats().cold_solves;
  double share = 0.0;
  TSF_CHECK(SolveState(probe_state, &share, nullptr))
      << "freeze-probe LP infeasible — floors exceed capacity?";
  TSF_COUNTER_ADD("filling.probe_cold_solves",
                  probe_state.stats().cold_solves - cold_before);
  return share;
}

}  // namespace tsf
