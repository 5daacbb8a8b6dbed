// Unit tests for constraints, Cluster, Compile, and constraint-graph
// component analysis.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/cluster.h"
#include "core/eligibility.h"
#include "util/rng.h"

namespace tsf {
namespace {

// The 4-machine constraint graph of Fig. 1: u1 everywhere but m4, u2
// everywhere, u3 only on m3, u4 on {m2, m4}.
SharingProblem Fig1Problem() {
  SharingProblem problem;
  for (int k = 0; k < 4; ++k)
    problem.cluster.AddMachine(ResourceVector{4.0, 8.0});
  JobSpec u1{.id = 0, .name = "u1", .demand = {1.0, 1.0}};
  u1.constraint = Constraint::Blacklist({3});
  JobSpec u2{.id = 1, .name = "u2", .demand = {1.0, 1.0}};
  JobSpec u3{.id = 2, .name = "u3", .demand = {1.0, 1.0}};
  u3.constraint = Constraint::Whitelist({2});
  JobSpec u4{.id = 3, .name = "u4", .demand = {1.0, 1.0}};
  u4.constraint = Constraint::Whitelist({1, 3});
  problem.jobs = {u1, u2, u3, u4};
  return problem;
}

TEST(AttributeSet, ContainsAll) {
  const AttributeSet machine({1, 3, 5, 7});
  EXPECT_TRUE(machine.ContainsAll(AttributeSet({3, 7})));
  EXPECT_TRUE(machine.ContainsAll(AttributeSet{}));
  EXPECT_FALSE(machine.ContainsAll(AttributeSet({3, 4})));
}

TEST(AttributeSet, AddIsIdempotentAndSorted) {
  AttributeSet set;
  set.Add(5);
  set.Add(1);
  set.Add(5);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.ids(), (std::vector<AttributeId>{1, 5}));
}

TEST(Constraint, NoneAllowsEverything) {
  const Constraint c = Constraint::None();
  EXPECT_TRUE(c.Allows(0, AttributeSet{}));
  EXPECT_TRUE(c.Allows(99, AttributeSet({1, 2})));
}

TEST(Constraint, AttributeRequirement) {
  const Constraint c = Constraint::RequireAttributes(AttributeSet({2, 4}));
  EXPECT_TRUE(c.Allows(0, AttributeSet({1, 2, 4})));
  EXPECT_FALSE(c.Allows(0, AttributeSet({2})));
}

TEST(Constraint, WhitelistAndBlacklist) {
  const Constraint white = Constraint::Whitelist({1, 3});
  EXPECT_TRUE(white.Allows(1, AttributeSet{}));
  EXPECT_FALSE(white.Allows(2, AttributeSet{}));
  const Constraint black = Constraint::Blacklist({1, 3});
  EXPECT_FALSE(black.Allows(1, AttributeSet{}));
  EXPECT_TRUE(black.Allows(2, AttributeSet{}));
}

TEST(Cluster, TotalsAndNormalization) {
  Cluster cluster;
  cluster.AddMachine(ResourceVector{9.0, 12.0});
  cluster.AddMachine(ResourceVector{3.0, 4.0});
  EXPECT_EQ(cluster.total(), (ResourceVector{12.0, 16.0}));
  const ResourceVector c0 = cluster.NormalizedCapacity(0);
  EXPECT_DOUBLE_EQ(c0[0], 0.75);
  EXPECT_DOUBLE_EQ(c0[1], 0.75);
  const ResourceVector d = cluster.NormalizedDemand({1.0, 2.0});
  EXPECT_DOUBLE_EQ(d[0], 1.0 / 12.0);
  EXPECT_DOUBLE_EQ(d[1], 2.0 / 16.0);
}

TEST(Cluster, EligibilityMatchesFig1) {
  const SharingProblem problem = Fig1Problem();
  const CompiledProblem compiled = Compile(problem);
  // u1: all but m4.
  EXPECT_TRUE(compiled.eligible[0].Test(0));
  EXPECT_TRUE(compiled.eligible[0].Test(2));
  EXPECT_FALSE(compiled.eligible[0].Test(3));
  // u2: everywhere.
  EXPECT_TRUE(compiled.eligible[1].All());
  // u3: only m3.
  EXPECT_EQ(compiled.eligible[2].Count(), 1u);
  EXPECT_TRUE(compiled.eligible[2].Test(2));
  // u4: m2 and m4.
  EXPECT_EQ(compiled.eligible[3].Count(), 2u);
}

// Eligibility by its definition: one Constraint::Allows probe per machine.
DynamicBitset AllowedByDefinition(const Cluster& cluster,
                                  const Constraint& constraint) {
  DynamicBitset bits(cluster.num_machines());
  for (const Machine& machine : cluster.machines())
    if (constraint.Allows(machine.id, machine.attributes)) bits.Set(machine.id);
  return bits;
}

std::vector<std::size_t> EligibleIds(const Cluster& cluster,
                                     const Constraint& constraint) {
  std::vector<std::size_t> ids;
  cluster.Eligibility(constraint).ForEachSet(
      [&](std::size_t m) { ids.push_back(m); });
  return ids;
}

TEST(Cluster, EligibilityEdgeCases) {
  using Ids = std::vector<std::size_t>;
  Cluster cluster;
  cluster.AddMachine(ResourceVector{1.0}, AttributeSet({1, 2}));
  cluster.AddMachine(ResourceVector{1.0}, AttributeSet({2}));
  cluster.AddMachine(ResourceVector{1.0});
  auto require = [](std::vector<AttributeId> ids) {
    return Constraint::RequireAttributes(AttributeSet(std::move(ids)));
  };
  EXPECT_EQ(EligibleIds(cluster, require({})), (Ids{0, 1, 2}));
  EXPECT_EQ(EligibleIds(cluster, require({2})), (Ids{0, 1}));
  EXPECT_EQ(EligibleIds(cluster, require({2, 1})), (Ids{0}));
  EXPECT_EQ(EligibleIds(cluster, require({7})), Ids{});  // on no machine
  EXPECT_EQ(EligibleIds(cluster, require({2, 7})), Ids{});
  // Duplicate ids collapse; ids past the cluster are ignored.
  EXPECT_EQ(EligibleIds(cluster, Constraint::Whitelist({2, 2, 0, 9})),
            (Ids{0, 2}));
  EXPECT_EQ(EligibleIds(cluster, Constraint::Whitelist({9})), Ids{});
  EXPECT_EQ(EligibleIds(cluster, Constraint::Blacklist({1, 1, 9})),
            (Ids{0, 2}));
  // A machine added after a compile joins its attributes' sets.
  cluster.AddMachine(ResourceVector{1.0}, AttributeSet({7, 2}));
  EXPECT_EQ(EligibleIds(cluster, require({7})), (Ids{3}));
  EXPECT_EQ(EligibleIds(cluster, require({2})), (Ids{0, 1, 3}));
  EXPECT_EQ(EligibleIds(cluster, Constraint::Whitelist({2, 2, 0, 9})),
            (Ids{0, 2}));
  EXPECT_EQ(EligibleIds(cluster, Constraint::Blacklist({1, 9})),
            (Ids{0, 2, 3}));
}

// The attribute index against the per-machine definition, on random
// clusters of 1-200 machines (one to four bitset words) built both ways.
// Machines carry attribute ids 0-8; constraints require ids 0-11, so some
// name an id no machine carries, and their machine lists repeat ids and
// run past the cluster.
TEST(Cluster, AttributeIndexMatchesPerMachineDefinition) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    const auto num_machines = static_cast<std::size_t>(rng.Int(1, 200));
    std::vector<Machine> machines(num_machines);
    for (Machine& machine : machines) {
      machine.capacity = ResourceVector{1.0};
      for (AttributeId a = 0; a < 9; ++a)
        if (rng.Chance(0.3)) machine.attributes.Add(a);
    }
    std::vector<Constraint> constraints = {
        Constraint::None(), Constraint::RequireAttributes(AttributeSet{})};
    for (int k = 0; k < 30; ++k) {
      AttributeSet required;
      for (std::int64_t n = rng.Int(1, 3); n > 0; --n)
        required.Add(static_cast<AttributeId>(rng.Below(12)));
      constraints.push_back(Constraint::RequireAttributes(required));
      std::vector<MachineId> listed;
      for (std::int64_t n = rng.Int(1, 6); n > 0; --n)
        listed.push_back(rng.Below(num_machines + 8));
      listed.push_back(listed.front());
      constraints.push_back(Constraint::Whitelist(listed));
      constraints.push_back(Constraint::Blacklist(listed));
    }
    auto expect_exact = [&](const Cluster& cluster) {
      for (const Constraint& constraint : constraints)
        EXPECT_EQ(cluster.Eligibility(constraint),
                  AllowedByDefinition(cluster, constraint))
            << "seed " << seed << ", " << constraint.ToString() << " on "
            << cluster.num_machines() << " machines";
    };
    expect_exact(Cluster(machines));
    Cluster grown;
    for (const Machine& machine : machines) {
      grown.AddMachine(machine.capacity, machine.attributes);
      if (rng.Chance(0.05)) expect_exact(grown);
    }
    expect_exact(grown);
  }
}

TEST(EligibilityPool, SharesOneHandlePerConstraint) {
  Cluster cluster;
  cluster.AddMachine(ResourceVector{1.0}, AttributeSet({1, 2}));
  cluster.AddMachine(ResourceVector{1.0}, AttributeSet({2}));
  const MachineClassIndex classes(cluster);
  EligibilityPool pool(cluster, classes);
  const EligibilityHandle a =
      pool.Intern(Constraint::RequireAttributes(AttributeSet({2, 1})));
  const EligibilityHandle b =
      pool.Intern(Constraint::RequireAttributes(AttributeSet({1, 2, 2})));
  const EligibilityHandle w = pool.Intern(Constraint::Whitelist({1, 9, 1}));
  const EligibilityHandle w2 = pool.Intern(Constraint::Whitelist({9, 1}));
  const EligibilityHandle all = pool.Intern(Constraint::None());
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(w.get(), w2.get());
  EXPECT_NE(a.get(), w.get());
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(pool.misses(), 3u);
  EXPECT_EQ(a->machines,
            cluster.Eligibility(Constraint::RequireAttributes(
                AttributeSet({1, 2}))));
  EXPECT_EQ(a->num_eligible, 1u);
  EXPECT_EQ(w->num_eligible, 1u);
  EXPECT_EQ(all->num_eligible, 2u);
  // Serials follow the compile order.
  EXPECT_EQ(a->serial, 0u);
  EXPECT_EQ(w->serial, 1u);
  EXPECT_EQ(all->serial, 2u);
  // Two distinct machines are two classes of one; none is partly covered.
  EXPECT_EQ(a->classes.Count(), 1u);
  EXPECT_EQ(all->classes.Count(), 2u);
  EXPECT_TRUE(a->partial.None());
  EXPECT_TRUE(w->partial.None());
}

TEST(EligibilityPool, ClassSummariesMarkSplitClasses) {
  Cluster cluster;
  for (int m = 0; m < 3; ++m)
    cluster.AddMachine(ResourceVector{1.0}, AttributeSet({1}));
  cluster.AddMachine(ResourceVector{2.0}, AttributeSet({1}));
  cluster.AddMachine(ResourceVector{1.0}, AttributeSet({1}));
  const MachineClassIndex classes(cluster);
  ASSERT_EQ(classes.num_classes(), 2u);
  EXPECT_EQ(classes.class_size(0), 4u);
  EXPECT_EQ(classes.class_size(1), 1u);
  EXPECT_EQ(classes.class_of(4), 0u);
  EXPECT_EQ(classes.representative(1), 3u);
  const std::vector<std::uint32_t> members(classes.members(0).begin(),
                                           classes.members(0).end());
  EXPECT_EQ(members, (std::vector<std::uint32_t>{0, 1, 2, 4}));

  EligibilityPool pool(cluster, classes);
  const EligibilityHandle attr =
      pool.Intern(Constraint::RequireAttributes(AttributeSet({1})));
  EXPECT_TRUE(attr->ClassFull(0));
  EXPECT_TRUE(attr->ClassFull(1));
  // Id 9 lies past the cluster and is ignored.
  const EligibilityHandle white = pool.Intern(Constraint::Whitelist({1, 3, 9}));
  EXPECT_EQ(white->num_eligible, 2u);
  EXPECT_TRUE(white->classes.Test(0));
  EXPECT_TRUE(white->PartlyCovers(0));
  EXPECT_TRUE(white->ClassFull(1));
  const EligibilityHandle black =
      pool.Intern(Constraint::Blacklist({0, 1, 2, 4}));
  EXPECT_FALSE(black->classes.Test(0));
  EXPECT_FALSE(black->PartlyCovers(0));
  EXPECT_TRUE(black->ClassFull(1));

  const MachineClassIndex singles = MachineClassIndex::Singletons(3);
  EXPECT_EQ(singles.num_classes(), 3u);
  EXPECT_EQ(singles.class_of(2), 2u);
  EXPECT_EQ(singles.class_size(1), 1u);
  EXPECT_EQ(singles.representative(1), 1u);
}

TEST(Compile, MonopolyCountsFig4Example) {
  // The running example of Sec. V-A: h = (14, 7, 7).
  SharingProblem problem;
  problem.cluster.AddMachine(ResourceVector{9.0, 12.0});
  problem.cluster.AddMachine(ResourceVector{3.0, 4.0});
  problem.cluster.AddMachine(ResourceVector{9.0, 12.0});
  JobSpec u1{.id = 0, .name = "u1", .demand = {1.0, 2.0}};
  u1.constraint = Constraint::Blacklist({2});
  JobSpec u2{.id = 1, .name = "u2", .demand = {3.0, 1.0}};
  u2.constraint = Constraint::Whitelist({1});
  JobSpec u3{.id = 2, .name = "u3", .demand = {1.0, 4.0}};
  problem.jobs = {u1, u2, u3};
  const CompiledProblem compiled = Compile(problem);
  EXPECT_NEAR(compiled.h[0], 14.0, 1e-9);
  EXPECT_NEAR(compiled.h[1], 7.0, 1e-9);
  EXPECT_NEAR(compiled.h[2], 7.0, 1e-9);
  // Constrained monopoly: u1 loses m3 (6 tasks), u2 keeps only m2 (1 task).
  EXPECT_NEAR(compiled.g[0], 8.0, 1e-9);
  EXPECT_NEAR(compiled.g[1], 1.0, 1e-9);
  EXPECT_NEAR(compiled.g[2], 7.0, 1e-9);
}

TEST(CompileDeathTest, RejectsZeroDemand) {
  SharingProblem problem;
  problem.cluster.AddMachine(ResourceVector{1.0, 1.0});
  problem.jobs.push_back(JobSpec{.id = 0, .name = "z", .demand = {0.0, 0.0}});
  EXPECT_DEATH(Compile(problem), "demand must be positive");
}

TEST(CompileDeathTest, RejectsUnsatisfiableConstraint) {
  SharingProblem problem;
  problem.cluster.AddMachine(ResourceVector{1.0, 1.0});
  JobSpec job{.id = 0, .name = "nowhere", .demand = {1.0, 1.0}};
  job.constraint = Constraint::RequireAttributes(AttributeSet({42}));
  problem.jobs.push_back(job);
  EXPECT_DEATH(Compile(problem), "no machine satisfies");
}

TEST(CompileDeathTest, RejectsNonPositiveWeight) {
  SharingProblem problem;
  problem.cluster.AddMachine(ResourceVector{1.0});
  JobSpec job{.id = 0, .name = "w0", .demand = {1.0}};
  job.weight = 0.0;
  problem.jobs.push_back(job);
  EXPECT_DEATH(Compile(problem), "weight must be positive");
}

TEST(FindComponents, ConnectedGraphIsOneComponent) {
  const CompiledProblem compiled = Compile(Fig1Problem());
  const ConstraintComponents components = FindComponents(compiled);
  EXPECT_EQ(components.count, 1u);
}

TEST(FindComponents, DisjointWhitelistsSplit) {
  SharingProblem problem;
  for (int k = 0; k < 4; ++k) problem.cluster.AddMachine(ResourceVector{1.0});
  JobSpec a{.id = 0, .name = "a", .demand = {1.0}};
  a.constraint = Constraint::Whitelist({0, 1});
  JobSpec b{.id = 1, .name = "b", .demand = {1.0}};
  b.constraint = Constraint::Whitelist({2, 3});
  problem.jobs = {a, b};
  const ConstraintComponents components = FindComponents(Compile(problem));
  EXPECT_EQ(components.count, 2u);
  EXPECT_NE(components.user_component[0], components.user_component[1]);
  EXPECT_EQ(components.machine_component[0], components.machine_component[1]);
  EXPECT_EQ(components.machine_component[2], components.machine_component[3]);
}

TEST(FindComponents, SharedUserMergesComponents) {
  SharingProblem problem;
  for (int k = 0; k < 3; ++k) problem.cluster.AddMachine(ResourceVector{1.0});
  JobSpec a{.id = 0, .name = "a", .demand = {1.0}};
  a.constraint = Constraint::Whitelist({0});
  JobSpec b{.id = 1, .name = "b", .demand = {1.0}};
  b.constraint = Constraint::Whitelist({0, 2});
  problem.jobs = {a, b};
  const ConstraintComponents components = FindComponents(Compile(problem));
  // m1 bridged to m3 through user b; m2 has no user and stands alone.
  EXPECT_EQ(components.count, 2u);
  EXPECT_EQ(components.user_component[0], components.user_component[1]);
}

}  // namespace
}  // namespace tsf
