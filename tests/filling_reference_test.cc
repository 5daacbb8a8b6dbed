// Offline Algorithm 1 against a from-scratch reference. The engine
// (core/offline/filling_engine.h) solves every round and FREEZE probe warm
// on one mutated StandardForm; the reference below rebuilds each of those
// LPs from the FillingSpec alone, in the plain form the paper states them,
// and solves it cold on the dense oracle (lp_oracle.h). Both apply the same
// freeze rule, so freeze rounds must match exactly, and levels and shares
// to LP tolerance (the two solvers may pick different optimal vertices of
// degenerate programs). A fault in how the engine formulates or mutates its
// LPs shows up as a diverging level or freeze round.
//
// The engine decides most FREEZE questions from the round basis instead of
// a probe (a nonzero dual, or a replayed first pivot). A second test holds
// those decisions to the full probes they replace, round by round.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/offline/multiclass.h"
#include "core/offline/policies.h"
#include "core/offline/progressive_filling.h"
#include "lp_oracle.h"
#include "random_instances.h"
#include "telemetry/metrics.h"

namespace tsf {
namespace {

// The engine's saturation tolerance (filling_engine.cc).
constexpr double kShareEps = 1e-7;

struct ReferenceResult {
  std::vector<std::size_t> freeze_round;  // 1-based, per user
  std::vector<double> round_levels;
  std::vector<double> shares;  // of the final round's allocation
};

// Task variables x, then one extra variable `t`. Every coupling row of user
// i reads `terms · x >= share_coeff * share_i`, where share_i is t when
// `t_users[i]` is set and the constant floor[i] otherwise.
lp::Problem BuildLp(const FillingSpec& spec, const std::vector<bool>& t_users,
                    const std::vector<double>& floor) {
  const std::size_t t = spec.num_structural;
  lp::Problem problem(t + 1);
  problem.SetObjectiveCoefficient(t, 1.0);
  for (std::size_t i = 0; i < spec.user_rows.size(); ++i) {
    for (const FillingCouplingRow& row : spec.user_rows[i]) {
      std::vector<std::pair<std::size_t, double>> terms = row.terms;
      double rhs = 0.0;
      if (t_users[i]) {
        terms.emplace_back(t, -row.share_coeff);
      } else {
        rhs = row.share_coeff * floor[i];
      }
      problem.AddConstraintSparse(terms, lp::Relation::kGreaterEqual, rhs);
    }
  }
  for (const FillingCapacityRow& row : spec.capacity)
    problem.AddConstraintSparse(row.terms, lp::Relation::kLessEqual,
                                row.capacity);
  return problem;
}

// Algorithm 1: raise every active user to the largest common level t, then
// probe each active user's largest share with every other user held at its
// floor (the round level for active users), and freeze the users that
// cannot rise above the level. If round-off hides every saturated user,
// freeze the one with the smallest gap, as the engine does.
ReferenceResult ReferenceFilling(const FillingSpec& spec) {
  const std::size_t n = spec.user_rows.size();
  std::vector<bool> active(n, true);
  std::vector<double> floor(n, 0.0);
  ReferenceResult result;
  result.freeze_round.assign(n, 0);
  std::vector<double> x;
  std::size_t num_active = n;
  while (num_active > 0) {
    if (result.round_levels.size() == n) {
      ADD_FAILURE() << "reference did not converge";
      break;
    }
    const lp::Solution round = BuildLp(spec, active, floor).Solve();
    EXPECT_TRUE(round.optimal()) << "round LP " << lp::ToString(round.status);
    if (!round.optimal()) break;
    const double level = round.objective;
    result.round_levels.push_back(level);
    x = round.x;

    std::vector<double> held = floor;
    for (std::size_t i = 0; i < n; ++i)
      if (active[i]) held[i] = level;
    const double tolerance = kShareEps * std::max(1.0, level);
    std::vector<std::size_t> saturated;
    std::size_t closest = n;
    double closest_gap = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      if (!active[j]) continue;
      std::vector<bool> probed(n, false);
      probed[j] = true;
      const lp::Solution probe = BuildLp(spec, probed, held).Solve();
      EXPECT_TRUE(probe.optimal()) << "probe LP " << lp::ToString(probe.status);
      if (!probe.optimal()) return result;
      const double gap = probe.objective - level;
      if (gap <= tolerance) saturated.push_back(j);
      if (gap < closest_gap) {
        closest_gap = gap;
        closest = j;
      }
    }
    if (saturated.empty()) saturated.push_back(closest);
    for (const std::size_t j : saturated) {
      active[j] = false;
      floor[j] = level;
      result.freeze_round[j] = result.round_levels.size();
      --num_active;
    }
  }
  // A single-class user's one coupling row: its tasks over its denominator.
  result.shares.assign(n, 0.0);
  for (std::size_t i = 0; i < n && !x.empty(); ++i) {
    const FillingCouplingRow& row = spec.user_rows[i].front();
    double tasks = 0.0;
    for (const auto& [variable, coefficient] : row.terms)
      tasks += coefficient * x[variable];
    result.shares[i] = tasks / row.share_coeff;
  }
  return result;
}

TEST(FillingReferenceTest, EngineMatchesFromScratchReference) {
  for (const std::size_t users : {4u, 8u, 12u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const CompiledProblem problem =
          Compile(RandomSharing(users, users, seed));
      const FillingResult engine = SolveTsf(problem);
      const EdgeLayout layout(problem);
      const ReferenceResult reference = ReferenceFilling(
          MakeFillingSpec(problem, layout, TsfDenominator(problem)));
      ASSERT_EQ(engine.freeze_round, reference.freeze_round)
          << users << " users, seed " << seed;
      ASSERT_EQ(engine.round_levels.size(), reference.round_levels.size())
          << users << " users, seed " << seed;
      for (std::size_t r = 0; r < engine.round_levels.size(); ++r)
        EXPECT_NEAR(engine.round_levels[r], reference.round_levels[r], 1e-6)
            << users << " users, seed " << seed << ", round " << r;
      for (UserId i = 0; i < problem.num_users; ++i)
        EXPECT_NEAR(engine.shares[i], reference.shares[i], 1e-6)
            << users << " users, seed " << seed << ", user " << i;
    }
  }
}

// Drives the engine round by round. Before each FreezeSaturatedUsers(),
// full cutoff probes of every active user give the freeze set without
// certificates (with the smallest-gap rule when it is empty); the engine
// must freeze exactly that set.
void ExpectCertificatesMatchProbes(const FillingSpec& spec,
                                   const std::string& label) {
  FillingEngine engine(spec);
  const std::size_t n = engine.num_users();
  std::vector<bool> active(n, true);
  std::size_t num_active = n;
  for (std::size_t round = 1; num_active > 0; ++round) {
    ASSERT_LE(round, n + 1) << label << ": no convergence";
    double level = 0.0;
    ASSERT_TRUE(engine.SolveRound(&level, nullptr)) << label;
    std::vector<double> max_share;
    engine.ProbeMaxShares(active, /*stop_at_threshold=*/true, &max_share);
    const double tolerance = kShareEps * std::max(1.0, level);
    std::vector<std::size_t> expected;
    for (std::size_t j = 0; j < n; ++j)
      if (active[j] && max_share[j] - level <= tolerance) expected.push_back(j);
    if (expected.empty()) {
      engine.ProbeMaxShares(active, /*stop_at_threshold=*/false, &max_share);
      std::size_t closest = n;
      for (std::size_t j = 0; j < n; ++j)
        if (active[j] && (closest == n || max_share[j] < max_share[closest]))
          closest = j;
      expected.push_back(closest);
    }
    const std::vector<std::size_t> frozen = engine.FreezeSaturatedUsers();
    ASSERT_EQ(frozen, expected) << label << ", round " << round;
    for (const std::size_t j : frozen) {
      active[j] = false;
      --num_active;
    }
  }
}

TEST(FillingReferenceTest, FreezeCertificatesMatchFullProbes) {
  telemetry::Registry& registry = telemetry::Registry::Get();
  const auto read = [&](const char* name) {
    return registry.GetCounter(name).Total();
  };
  const std::int64_t duals_before = read("filling.dual_freezes");
  const std::int64_t witnesses_before = read("filling.step_witnesses");
  telemetry::SetEnabled(true);
  for (const std::size_t users : {4u, 8u, 12u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const CompiledProblem problem =
          Compile(RandomSharing(users, users, seed));
      const EdgeLayout layout(problem);
      ExpectCertificatesMatchProbes(
          MakeFillingSpec(problem, layout, TsfDenominator(problem)),
          std::to_string(users) + " users, seed " + std::to_string(seed));
    }
  }
  for (const TraceInstance& instance : kGoldenTraceInstances) {
    const CompiledProblem problem = CompileTrace(instance);
    const EdgeLayout layout(problem);
    const std::pair<std::vector<double>, const char*> denominators[] = {
        {TsfDenominator(problem), "TSF"},
        {CdrfDenominator(problem), "CDRF"},
        {DrfhDenominator(problem), "DRFH"},
        {CmmfDenominator(problem, /*resource=*/0), "CMMF"}};
    for (const auto& [denominator, policy] : denominators)
      ExpectCertificatesMatchProbes(
          MakeFillingSpec(problem, layout, denominator),
          "trace " + std::to_string(instance.machines) + "x" +
              std::to_string(instance.jobs) + " seed " +
              std::to_string(instance.seed) + " " + policy);
  }
  for (const std::uint64_t seed : kGoldenMultiClassSeeds)
    ExpectCertificatesMatchProbes(
        MakeMultiClassFillingSpec(
            CompileMultiClass(RandomMultiClass(6, 5, seed))),
        "multi-class seed " + std::to_string(seed));
  telemetry::SetEnabled(false);
#if defined(TSF_TELEMETRY)
  // Without certificates every decision above would be a probe, and the
  // comparison would hold vacuously.
  EXPECT_GT(read("filling.dual_freezes") - duals_before, 0);
  EXPECT_GT(read("filling.step_witnesses") - witnesses_before, 0);
#else
  static_cast<void>(duals_before);
  static_cast<void>(witnesses_before);
#endif
}

}  // namespace
}  // namespace tsf
