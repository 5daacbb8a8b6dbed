// Tests for the multi-class TSF extension (Sec. VII's pointer to Tan et
// al. applied to TSF).
#include <gtest/gtest.h>

#include "core/offline/multiclass.h"
#include "core/offline/policies.h"
#include "core/paper_examples.h"
#include "lp_oracle.h"
#include "random_instances.h"
#include "util/rng.h"

namespace tsf {
namespace {

TEST(MultiClass, SingleClassReducesToStandardTsf) {
  // Wrap the Fig. 4 instance: every user one class with mix {1}.
  const SharingProblem base = paper::Fig4();
  MultiClassProblem problem;
  problem.cluster = base.cluster;
  for (const JobSpec& job : base.jobs) {
    MultiClassJobSpec user;
    user.name = job.name;
    user.weight = job.weight;
    user.constraint = job.constraint;
    user.class_demand = {job.demand};
    user.class_mix = {1.0};
    problem.users.push_back(std::move(user));
  }
  const CompiledMultiClass compiled = CompileMultiClass(problem);
  // H degenerates to h: (14, 7, 7).
  EXPECT_NEAR(compiled.H[0], 14.0, 1e-6);
  EXPECT_NEAR(compiled.H[1], 7.0, 1e-6);
  EXPECT_NEAR(compiled.H[2], 7.0, 1e-6);

  const MultiClassResult result = SolveMultiClassTsf(compiled);
  EXPECT_NEAR(result.allocation.UserTasks(0), 6.0, 1e-4);
  EXPECT_NEAR(result.allocation.UserTasks(1), 1.0, 1e-4);
  EXPECT_NEAR(result.allocation.UserTasks(2), 3.0, 1e-4);
  EXPECT_NEAR(result.shares[0], 3.0 / 7.0, 1e-5);
  EXPECT_NEAR(result.shares[1], 1.0 / 7.0, 1e-5);
  EXPECT_NEAR(result.shares[2], 3.0 / 7.0, 1e-5);
}

TEST(MultiClass, MonopolyTotalRespectsTheMix) {
  // One machine <8 CPU, 8 GB>. Classes: map <1,0.5> (mix 3/4) and reduce
  // <1,2> (mix 1/4). Per 4 tasks: 3 maps + 1 reduce = <4 CPU, 3.5 GB>;
  // CPU binds: n <= 8.
  MultiClassProblem problem;
  problem.cluster.AddMachine(ResourceVector{8.0, 8.0});
  MultiClassJobSpec user;
  user.name = "mr";
  user.class_demand = {ResourceVector{1.0, 0.5}, ResourceVector{1.0, 2.0}};
  user.class_mix = {0.75, 0.25};
  problem.users.push_back(user);
  const CompiledMultiClass compiled = CompileMultiClass(problem);
  EXPECT_NEAR(compiled.H[0], 8.0, 1e-6);
}

// The monopoly LP behind H writes its mix rows as sum_m n_cm >= mix_c * n.
// Its optimum must be the equality form's, solved here on the dense oracle.
TEST(MultiClass, MonopolyMixRowsMatchTheEqualityForm) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const CompiledMultiClass compiled =
        CompileMultiClass(RandomMultiClass(6, 5, seed));
    const std::size_t machines = compiled.num_machines;
    for (UserId i = 0; i < compiled.num_users; ++i) {
      const std::size_t classes = compiled.mix[i].size();
      const std::size_t total = classes * machines;
      lp::Problem equality(total + 1);
      equality.SetObjectiveCoefficient(total, 1.0);
      for (std::size_t c = 0; c < classes; ++c) {
        std::vector<std::pair<std::size_t, double>> terms;
        for (MachineId m = 0; m < machines; ++m)
          terms.emplace_back(c * machines + m, 1.0);
        terms.emplace_back(total, -compiled.mix[i][c]);
        equality.AddConstraintSparse(terms, lp::Relation::kEqual, 0.0);
      }
      for (MachineId m = 0; m < machines; ++m) {
        for (std::size_t r = 0; r < compiled.num_resources; ++r) {
          std::vector<std::pair<std::size_t, double>> terms;
          for (std::size_t c = 0; c < classes; ++c)
            if (compiled.demand[i][c][r] > 0.0)
              terms.emplace_back(c * machines + m, compiled.demand[i][c][r]);
          if (!terms.empty())
            equality.AddConstraintSparse(terms, lp::Relation::kLessEqual,
                                         compiled.machine_capacity[m][r]);
        }
      }
      const lp::Solution expected = equality.Solve();
      ASSERT_TRUE(expected.optimal()) << "seed " << seed << " user " << i;
      EXPECT_NEAR(compiled.H[i], expected.objective, 1e-9 * expected.objective)
          << "seed " << seed << " user " << i;
    }
  }
}

TEST(MultiClass, AllocationKeepsClassProportions) {
  MultiClassProblem problem;
  problem.cluster.AddMachine(ResourceVector{12.0, 12.0});
  problem.cluster.AddMachine(ResourceVector{12.0, 12.0});
  MultiClassJobSpec a;
  a.name = "a";
  a.class_demand = {ResourceVector{1.0, 0.5}, ResourceVector{0.5, 2.0}};
  a.class_mix = {2.0 / 3.0, 1.0 / 3.0};
  MultiClassJobSpec b;
  b.name = "b";
  b.class_demand = {ResourceVector{1.0, 1.0}};
  b.class_mix = {1.0};
  problem.users = {a, b};
  const CompiledMultiClass compiled = CompileMultiClass(problem);
  const MultiClassResult result = SolveMultiClassTsf(compiled);
  const double total = result.allocation.UserTasks(0);
  ASSERT_GT(total, 0.1);
  EXPECT_NEAR(result.allocation.ClassTasks(0, 0), total * 2.0 / 3.0, 1e-5);
  EXPECT_NEAR(result.allocation.ClassTasks(0, 1), total / 3.0, 1e-5);
}

TEST(MultiClass, ConstraintsRestrictEveryClass) {
  MultiClassProblem problem;
  problem.cluster.AddMachine(ResourceVector{6.0});
  problem.cluster.AddMachine(ResourceVector{6.0});
  MultiClassJobSpec pinned;
  pinned.name = "pinned";
  pinned.constraint = Constraint::Whitelist({1});
  pinned.class_demand = {ResourceVector{1.0}, ResourceVector{2.0}};
  pinned.class_mix = {0.5, 0.5};
  problem.users.push_back(pinned);
  const CompiledMultiClass compiled = CompileMultiClass(problem);
  const MultiClassResult result = SolveMultiClassTsf(compiled);
  // Machine 0 must stay empty.
  for (std::size_t c = 0; c < 2; ++c)
    EXPECT_NEAR(result.allocation.tasks[0][c][0], 0.0, 1e-9);
  // Machine 1: n/2 * 1 + n/2 * 2 = 6 -> n = 4; H (both machines) = 8.
  EXPECT_NEAR(result.allocation.UserTasks(0), 4.0, 1e-5);
  EXPECT_NEAR(result.shares[0], 0.5, 1e-6);
}

TEST(MultiClass, SharesEqualizeAcrossHeterogeneousUsers) {
  // Two users with different class structures end up with equal shares on
  // a symmetric cluster (neither saturates before the other).
  MultiClassProblem problem;
  problem.cluster.AddMachine(ResourceVector{10.0, 10.0});
  MultiClassJobSpec mixed;
  mixed.name = "mixed";
  mixed.class_demand = {ResourceVector{2.0, 1.0}, ResourceVector{1.0, 2.0}};
  mixed.class_mix = {0.5, 0.5};
  MultiClassJobSpec plain;
  plain.name = "plain";
  plain.class_demand = {ResourceVector{1.0, 1.0}};
  plain.class_mix = {1.0};
  problem.users = {mixed, plain};
  const CompiledMultiClass compiled = CompileMultiClass(problem);
  const MultiClassResult result = SolveMultiClassTsf(compiled);
  EXPECT_NEAR(result.shares[0], result.shares[1], 1e-5);
}

TEST(MultiClass, RandomizedFeasibilityAndMixInvariant) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 17 + 3);
    MultiClassProblem problem;
    const auto machines = static_cast<std::size_t>(rng.Int(2, 4));
    for (std::size_t m = 0; m < machines; ++m)
      problem.cluster.AddMachine(ResourceVector(std::vector<double>{
          rng.Uniform(4.0, 16.0), rng.Uniform(4.0, 16.0)}));
    const auto users = static_cast<std::size_t>(rng.Int(2, 4));
    for (std::size_t i = 0; i < users; ++i) {
      MultiClassJobSpec user;
      user.name = "u" + std::to_string(i);
      const auto classes = static_cast<std::size_t>(rng.Int(1, 3));
      double remaining = 1.0;
      for (std::size_t c = 0; c < classes; ++c) {
        user.class_demand.push_back(ResourceVector(std::vector<double>{
            rng.Uniform(0.3, 2.0), rng.Uniform(0.3, 2.0)}));
        const double mix = c + 1 == classes
                               ? remaining
                               : remaining * rng.Uniform(0.2, 0.8);
        user.class_mix.push_back(mix);
        remaining -= mix;
      }
      if (rng.Chance(0.5) && machines > 1)
        user.constraint = Constraint::Whitelist({rng.Below(machines)});
      problem.users.push_back(std::move(user));
    }
    const CompiledMultiClass compiled = CompileMultiClass(problem);
    const MultiClassResult result = SolveMultiClassTsf(compiled);

    // Mix invariant per user.
    for (std::size_t i = 0; i < users; ++i) {
      const double total = result.allocation.UserTasks(i);
      for (std::size_t c = 0; c < compiled.mix[i].size(); ++c)
        EXPECT_NEAR(result.allocation.ClassTasks(i, c),
                    total * compiled.mix[i][c], 1e-4)
            << "seed " << seed;
    }
    // Capacity + eligibility.
    for (MachineId m = 0; m < machines; ++m) {
      ResourceVector usage(2);
      for (std::size_t i = 0; i < users; ++i)
        for (std::size_t c = 0; c < compiled.mix[i].size(); ++c) {
          const double tasks = result.allocation.tasks[i][c][m];
          if (tasks > 1e-9) {
            EXPECT_TRUE(compiled.eligible[i].Test(m));
          }
          usage += tasks * compiled.demand[i][c];
        }
      for (std::size_t r = 0; r < 2; ++r)
        EXPECT_LE(usage[r], compiled.machine_capacity[m][r] + 1e-6)
            << "seed " << seed;
    }
  }
}

TEST(MultiClassDeathTest, RejectsBadMix) {
  MultiClassProblem problem;
  problem.cluster.AddMachine(ResourceVector{4.0});
  MultiClassJobSpec user;
  user.name = "bad";
  user.class_demand = {ResourceVector{1.0}, ResourceVector{1.0}};
  user.class_mix = {0.5, 0.6};  // sums to 1.1
  problem.users.push_back(user);
  EXPECT_DEATH(CompileMultiClass(problem), "mix must sum to 1");
}

TEST(MultiClassDeathTest, RejectsZeroMixClass) {
  MultiClassProblem problem;
  problem.cluster.AddMachine(ResourceVector{4.0});
  MultiClassJobSpec user;
  user.name = "zero";
  user.class_demand = {ResourceVector{1.0}, ResourceVector{1.0}};
  user.class_mix = {1.0, 0.0};
  problem.users.push_back(user);
  EXPECT_DEATH(CompileMultiClass(problem), "strictly positive");
}

}  // namespace
}  // namespace tsf
