// Unit tests for the online scheduler (Sec. V-D): key functions per policy,
// greedy placement, ascending-share service, retirement.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/online/reference_scheduler.h"
#include "core/online/scheduler.h"
#include "util/rng.h"

namespace tsf {
namespace {

// Two machines, each with normalized capacity <0.5, 0.5> (i.e. a homogeneous
// 2-node cluster).
std::vector<ResourceVector> TwoMachines() {
  return {ResourceVector{0.5, 0.5}, ResourceVector{0.5, 0.5}};
}

DynamicBitset Machines(std::size_t total, std::initializer_list<std::size_t> set) {
  DynamicBitset bits(total);
  for (const auto m : set) bits.Set(m);
  return bits;
}

OnlineUserSpec UnitUser(std::size_t total_machines, double h, double g,
                        long pending,
                        std::initializer_list<std::size_t> machines) {
  OnlineUserSpec spec;
  spec.demand = ResourceVector{0.1, 0.1};
  spec.eligible = Machines(total_machines, machines);
  spec.h = h;
  spec.g = g;
  spec.pending = pending;
  return spec;
}

TEST(OnlineScheduler, GreedyPlacementFillsEligibleMachines) {
  OnlineScheduler scheduler(TwoMachines(), OnlinePolicy::Tsf());
  const UserId u = scheduler.AddUser(UnitUser(2, 10, 10, 20, {0, 1}));
  std::vector<MachineId> placements;
  scheduler.PlaceUserGreedy(u, [&](MachineId m) { placements.push_back(m); });
  // Each machine fits 5 tasks of <0.1,0.1> in <0.5,0.5>.
  EXPECT_EQ(placements.size(), 10u);
  EXPECT_EQ(scheduler.running(u), 10);
  EXPECT_EQ(scheduler.pending(u), 10);
  EXPECT_TRUE(scheduler.FreeCapacity(0).IsZero(1e-9));
}

TEST(OnlineScheduler, GreedyRespectsEligibility) {
  OnlineScheduler scheduler(TwoMachines(), OnlinePolicy::Tsf());
  const UserId u = scheduler.AddUser(UnitUser(2, 10, 5, 20, {1}));
  int placed = 0;
  scheduler.PlaceUserGreedy(u, [&](MachineId m) {
    EXPECT_EQ(m, 1u);
    ++placed;
  });
  EXPECT_EQ(placed, 5);
  EXPECT_TRUE(scheduler.FreeCapacity(1).IsZero(1e-9));
  EXPECT_FALSE(scheduler.FreeCapacity(0).IsZero(1e-9));
}

TEST(OnlineScheduler, TaskFinishFreesResources) {
  OnlineScheduler scheduler(TwoMachines(), OnlinePolicy::Tsf());
  const UserId u = scheduler.AddUser(UnitUser(2, 10, 10, 5, {0}));
  scheduler.PlaceUserGreedy(u, [](MachineId) {});
  ASSERT_EQ(scheduler.running(u), 5);
  scheduler.OnTaskFinish(u, 0);
  EXPECT_EQ(scheduler.running(u), 4);
  EXPECT_NEAR(scheduler.FreeCapacity(0)[0], 0.1, 1e-12);
}

TEST(OnlineScheduler, ServeMachinePicksLowestTsfShare) {
  OnlineScheduler scheduler(TwoMachines(), OnlinePolicy::Tsf());
  // a has larger h → lower share at equal running counts → served first.
  const UserId a = scheduler.AddUser(UnitUser(2, 20, 20, 1, {0}));
  const UserId b = scheduler.AddUser(UnitUser(2, 10, 10, 1, {0}));
  // Pre-load both with one running task by greedy placement.
  scheduler.PlaceUserGreedy(a, [](MachineId) {});
  scheduler.PlaceUserGreedy(b, [](MachineId) {});
  scheduler.AddPending(a, 1);
  scheduler.AddPending(b, 1);
  // Capacity remains for three more tasks; a (share 1/20) beats b (1/10).
  std::vector<UserId> served;
  scheduler.ServeMachine(0, [&](UserId u, MachineId) { served.push_back(u); });
  ASSERT_FALSE(served.empty());
  EXPECT_EQ(served.front(), a);
}

TEST(OnlineScheduler, FifoServesByArrivalOrder) {
  OnlineScheduler scheduler(TwoMachines(), OnlinePolicy::Fifo());
  const UserId first = scheduler.AddUser(UnitUser(2, 10, 10, 3, {0}));
  const UserId second = scheduler.AddUser(UnitUser(2, 10, 10, 3, {0}));
  // Fill machine 0 with `second`'s tasks artificially by serving when only
  // it has pending... instead: both pending, serve from empty machine.
  std::vector<UserId> served;
  scheduler.ServeMachine(0, [&](UserId u, MachineId) { served.push_back(u); });
  ASSERT_EQ(served.size(), 5u);
  // FIFO: all of first's 3 tasks go before second's.
  EXPECT_EQ(served[0], first);
  EXPECT_EQ(served[1], first);
  EXPECT_EQ(served[2], first);
  EXPECT_EQ(served[3], second);
}

TEST(OnlineScheduler, DrfKeyUsesDominantShare) {
  OnlineScheduler scheduler({ResourceVector{1.0, 1.0}}, OnlinePolicy::Drf());
  OnlineUserSpec cpu_heavy;
  cpu_heavy.demand = ResourceVector{0.2, 0.1};
  cpu_heavy.eligible = Machines(1, {0});
  cpu_heavy.h = cpu_heavy.g = 5;
  cpu_heavy.pending = 2;
  const UserId u = scheduler.AddUser(std::move(cpu_heavy));
  EXPECT_DOUBLE_EQ(scheduler.Key(u), 0.0);
  scheduler.PlaceUserGreedy(u, [](MachineId) {});
  EXPECT_DOUBLE_EQ(scheduler.Key(u), 2 * 0.2);  // dominant = CPU
}

TEST(OnlineScheduler, CmmfKeyUsesChosenResource) {
  OnlineScheduler scheduler({ResourceVector{1.0, 1.0}},
                            OnlinePolicy::Cmmf(1, "Mem"));
  OnlineUserSpec user;
  user.demand = ResourceVector{0.2, 0.1};
  user.eligible = Machines(1, {0});
  user.h = user.g = 5;
  user.pending = 1;
  const UserId u = scheduler.AddUser(std::move(user));
  scheduler.PlaceUserGreedy(u, [](MachineId) {});
  EXPECT_DOUBLE_EQ(scheduler.Key(u), 0.1);
}

TEST(OnlineScheduler, CdrfKeyUsesConstrainedMonopoly) {
  OnlineScheduler scheduler(TwoMachines(), OnlinePolicy::Cdrf());
  const UserId u = scheduler.AddUser(UnitUser(2, 10, 4, 2, {0}));
  scheduler.PlaceUserGreedy(u, [](MachineId) {});
  EXPECT_DOUBLE_EQ(scheduler.Key(u), 2.0 / 4.0);
}

TEST(OnlineScheduler, WeightsDivideKeys) {
  OnlineScheduler scheduler(TwoMachines(), OnlinePolicy::Tsf());
  OnlineUserSpec spec = UnitUser(2, 10, 10, 1, {0});
  spec.weight = 2.0;
  const UserId u = scheduler.AddUser(std::move(spec));
  scheduler.PlaceUserGreedy(u, [](MachineId) {});
  EXPECT_DOUBLE_EQ(scheduler.Key(u), 1.0 / (10.0 * 2.0));
}

TEST(OnlineScheduler, RetiredUsersAreSkipped) {
  OnlineScheduler scheduler(TwoMachines(), OnlinePolicy::Tsf());
  const UserId dead = scheduler.AddUser(UnitUser(2, 10, 10, 5, {0}));
  const UserId live = scheduler.AddUser(UnitUser(2, 10, 10, 5, {0}));
  scheduler.Retire(dead);
  std::vector<UserId> served;
  scheduler.ServeMachine(0, [&](UserId u, MachineId) { served.push_back(u); });
  for (const UserId u : served) EXPECT_EQ(u, live);
  EXPECT_EQ(served.size(), 5u);
}

TEST(OnlineScheduler, ServeStopsWhenNothingFits) {
  OnlineScheduler scheduler({ResourceVector{0.15, 0.5}}, OnlinePolicy::Tsf());
  OnlineUserSpec spec;
  spec.demand = ResourceVector{0.1, 0.1};
  spec.eligible = Machines(1, {0});
  spec.h = spec.g = 5;
  spec.pending = 3;
  const UserId u = scheduler.AddUser(std::move(spec));
  int placed = 0;
  scheduler.ServeMachine(0, [&](UserId, MachineId) { ++placed; });
  EXPECT_EQ(placed, 1);  // CPU 0.15 fits one 0.1 task, not two
  EXPECT_EQ(scheduler.pending(u), 2);
}

// The serve ends once no admitted demand shape fits, not at the first
// failed fit: here the large shape stops fitting while the small one still
// does, and the small user must be served down to the last slot.
TEST(OnlineScheduler, ServeContinuesPastAShapeThatStoppedFitting) {
  auto serve = [](auto& scheduler) {
    OnlineUserSpec large;
    large.demand = ResourceVector{0.4, 0.4};
    large.eligible = Machines(1, {0});
    large.h = large.g = 2;
    large.pending = 5;
    OnlineUserSpec small = large;
    small.demand = ResourceVector{0.1, 0.1};
    small.h = small.g = 10;
    scheduler.AddUser(std::move(large));
    scheduler.AddUser(std::move(small));
    std::vector<UserId> served;
    scheduler.ServeMachine(0,
                           [&](UserId u, MachineId) { served.push_back(u); });
    return served;
  };
  // FIFO ranks the large user (id 0) first for as long as it fits.
  OnlineScheduler scheduler({ResourceVector{1.0, 1.0}}, OnlinePolicy::Fifo());
  ReferenceScheduler reference({ResourceVector{1.0, 1.0}},
                               OnlinePolicy::Fifo());
  const std::vector<UserId> served = serve(scheduler);
  EXPECT_EQ(served, (std::vector<UserId>{0, 0, 1, 1}));
  EXPECT_EQ(served, serve(reference));
  EXPECT_EQ(scheduler.pending(1), 3);
}

TEST(OnlineScheduler, MultipleUsersInterleaveByShare) {
  // Equal h: after each placement the served user's share rises, so service
  // alternates — the hallmark of max-min progressive service.
  OnlineScheduler scheduler({ResourceVector{1.0, 1.0}}, OnlinePolicy::Tsf());
  const UserId a = scheduler.AddUser(UnitUser(1, 10, 10, 4, {0}));
  const UserId b = scheduler.AddUser(UnitUser(1, 10, 10, 4, {0}));
  std::vector<UserId> served;
  scheduler.ServeMachine(0, [&](UserId u, MachineId) { served.push_back(u); });
  ASSERT_EQ(served.size(), 8u);
  EXPECT_EQ(served[0], a);  // tie broken by id
  EXPECT_EQ(served[1], b);
  EXPECT_EQ(served[2], a);
  EXPECT_EQ(served[3], b);
}

TEST(OnlineScheduler, InterleavedPlacementSharesIdleCapacity) {
  // Two users registered "at the same instant" with big backlogs: the
  // batch placement must split the idle cluster by key, not first-come.
  OnlineScheduler scheduler({ResourceVector{1.0, 1.0}}, OnlinePolicy::Tsf());
  const UserId a = scheduler.AddUser(UnitUser(1, 10, 10, 100, {0}));
  const UserId b = scheduler.AddUser(UnitUser(1, 10, 10, 100, {0}));
  std::vector<UserId> placed;
  scheduler.PlaceUsersInterleaved(
      {a, b}, [&](UserId u, MachineId) { placed.push_back(u); });
  EXPECT_EQ(placed.size(), 10u);  // 1.0 / 0.1 per dimension
  EXPECT_EQ(scheduler.running(a), 5);
  EXPECT_EQ(scheduler.running(b), 5);
}

TEST(OnlineScheduler, InterleavedPlacementWeightsBias) {
  // Equal h, weight 4:1 -> idle capacity splits 8:2.
  OnlineScheduler scheduler({ResourceVector{1.0, 1.0}}, OnlinePolicy::Tsf());
  OnlineUserSpec heavy = UnitUser(1, 10, 10, 100, {0});
  heavy.weight = 4.0;
  const UserId a = scheduler.AddUser(std::move(heavy));
  const UserId b = scheduler.AddUser(UnitUser(1, 10, 10, 100, {0}));
  scheduler.PlaceUsersInterleaved({a, b}, [](UserId, MachineId) {});
  EXPECT_EQ(scheduler.running(a), 8);
  EXPECT_EQ(scheduler.running(b), 2);
}

TEST(OnlineScheduler, InterleavedPlacementRespectsEligibility) {
  OnlineScheduler scheduler(TwoMachines(), OnlinePolicy::Tsf());
  const UserId pinned = scheduler.AddUser(UnitUser(2, 10, 5, 100, {1}));
  const UserId roamer = scheduler.AddUser(UnitUser(2, 10, 10, 100, {0, 1}));
  std::vector<std::pair<UserId, MachineId>> placements;
  scheduler.PlaceUsersInterleaved({pinned, roamer}, [&](UserId u, MachineId m) {
    placements.emplace_back(u, m);
  });
  // Equal h -> equal split of the 10 slots; every pinned task on machine 1.
  EXPECT_TRUE(scheduler.FreeCapacity(0).IsZero(1e-9));
  EXPECT_TRUE(scheduler.FreeCapacity(1).IsZero(1e-9));
  EXPECT_EQ(scheduler.running(pinned), 5);
  EXPECT_EQ(scheduler.running(roamer), 5);
  for (const auto& [user, machine] : placements) {
    if (user == pinned) {
      EXPECT_EQ(machine, 1u);
    }
  }
}

TEST(OnlineScheduler, InterleavedSingleUserEqualsGreedy) {
  OnlineScheduler a_sched(TwoMachines(), OnlinePolicy::Tsf());
  OnlineScheduler b_sched(TwoMachines(), OnlinePolicy::Tsf());
  const UserId a = a_sched.AddUser(UnitUser(2, 10, 10, 7, {0, 1}));
  const UserId b = b_sched.AddUser(UnitUser(2, 10, 10, 7, {0, 1}));
  std::vector<MachineId> greedy, batch;
  a_sched.PlaceUserGreedy(a, [&](MachineId m) { greedy.push_back(m); });
  b_sched.PlaceUsersInterleaved(
      {b}, [&](UserId, MachineId m) { batch.push_back(m); });
  EXPECT_EQ(greedy, batch);
}

TEST(OnlineScheduler, InterleavedFifoKeepsArrivalPriority) {
  // Under FIFO the earlier-registered user drains first even in a batch.
  OnlineScheduler scheduler({ResourceVector{1.0, 1.0}}, OnlinePolicy::Fifo());
  const UserId first = scheduler.AddUser(UnitUser(1, 10, 10, 6, {0}));
  const UserId second = scheduler.AddUser(UnitUser(1, 10, 10, 6, {0}));
  scheduler.PlaceUsersInterleaved({first, second}, [](UserId, MachineId) {});
  EXPECT_EQ(scheduler.running(first), 6);
  EXPECT_EQ(scheduler.running(second), 4);
}

TEST(OnlineSchedulerDeathTest, FinishWithoutRunningTaskAborts) {
  OnlineScheduler scheduler(TwoMachines(), OnlinePolicy::Tsf());
  const UserId u = scheduler.AddUser(UnitUser(2, 10, 10, 0, {0}));
  EXPECT_DEATH(scheduler.OnTaskFinish(u, 0), "check failed");
}

// --- Differential tests: incremental core vs the linear-scan reference. ---
//
// Both schedulers are driven through an identical randomized operation
// sequence (registrations, arrival batches, task finishes with re-serves,
// pending top-ups, retirements) and must agree placement-for-placement, in
// order, with bit-identical keys throughout. This is what licenses the
// heap/cursor machinery in the incremental core: any divergence from the
// naive rescan spec shows up as a stream mismatch here.

std::vector<OnlinePolicy> EveryPolicy() {
  return {OnlinePolicy::Fifo(),         OnlinePolicy::Drf(),
          OnlinePolicy::Cdrf(),         OnlinePolicy::Cmmf(0, "CPU"),
          OnlinePolicy::Cmmf(1, "Mem"), OnlinePolicy::Tsf()};
}

// With `grouped`, machine capacities come from a two-entry menu and the
// incremental core groups them by a class index, so classes have several
// members and random eligibility splits them; otherwise every capacity is
// distinct and every machine its own class.
void RunLockstep(std::uint64_t seed, bool grouped) {
  for (const OnlinePolicy& policy : EveryPolicy()) {
    Rng rng(seed * 1000003 + static_cast<std::uint64_t>(policy.kind));
    const auto num_machines = static_cast<std::size_t>(rng.Int(1, 8));
    std::vector<ResourceVector> capacity;
    Cluster cluster;
    for (std::size_t m = 0; m < num_machines; ++m) {
      capacity.push_back(grouped ? (rng.Chance(0.5) ? ResourceVector{0.5, 0.5}
                                                    : ResourceVector{0.3, 0.8})
                                 : ResourceVector{rng.Uniform(0.2, 1.0),
                                                  rng.Uniform(0.2, 1.0)});
      cluster.AddMachine(capacity.back());
    }
    std::optional<MachineClassIndex> classes;
    if (grouped) classes.emplace(cluster);
    OnlineScheduler fast = classes ? OnlineScheduler(capacity, policy, *classes)
                                   : OnlineScheduler(capacity, policy);
    ReferenceScheduler ref(capacity, policy);
    // (user, machine) of every task currently running; identical for both
    // cores because every placement stream is asserted equal below.
    std::vector<std::pair<UserId, MachineId>> running;

    // Runs `op` against each core, then asserts the recorded placement
    // streams and all externally visible state agree exactly.
    auto in_lockstep = [&](auto&& op) {
      std::vector<std::pair<UserId, MachineId>> from_fast, from_ref;
      op(fast, from_fast);
      op(ref, from_ref);
      ASSERT_EQ(from_fast, from_ref) << policy.name;
      for (const auto& placement : from_fast) running.push_back(placement);
      ASSERT_EQ(fast.num_users(), ref.num_users());
      for (UserId u = 0; u < fast.num_users(); ++u) {
        ASSERT_EQ(fast.Key(u), ref.Key(u)) << policy.name << " user " << u;
        ASSERT_EQ(fast.pending(u), ref.pending(u)) << policy.name;
        ASSERT_EQ(fast.running(u), ref.running(u)) << policy.name;
      }
      for (MachineId m = 0; m < num_machines; ++m)
        ASSERT_EQ(fast.FreeCapacity(m).values(), ref.FreeCapacity(m).values())
            << policy.name << " machine " << m;
      ASSERT_EQ(fast.HasPendingUsers(), ref.HasPendingUsers()) << policy.name;
    };

    auto random_spec = [&] {
      OnlineUserSpec spec;
      spec.demand =
          ResourceVector{rng.Uniform(0.02, 0.2), rng.Uniform(0.02, 0.2)};
      DynamicBitset eligible(num_machines);
      for (std::size_t m = 0; m < num_machines; ++m)
        if (rng.Chance(0.6)) eligible.Set(m);
      if (eligible.None()) eligible.Set(rng.Below(num_machines));
      spec.eligible = std::move(eligible);
      spec.weight = rng.Chance(0.5) ? 1.0 : rng.Uniform(0.5, 3.0);
      spec.h = rng.Uniform(1.0, 50.0);
      spec.g = rng.Uniform(1.0, spec.h);
      spec.pending = rng.Int(0, 12);
      return spec;
    };

    for (int step = 0; step < 60; ++step) {
      const auto roll = rng.Below(100);
      if (roll < 30 || fast.num_users() == 0) {
        // Arrival batch of 1–3 users, placed like the simulator would:
        // registered together, then interleaved by key.
        const auto batch = static_cast<std::size_t>(rng.Int(1, 3));
        std::vector<OnlineUserSpec> specs;
        for (std::size_t b = 0; b < batch; ++b) specs.push_back(random_spec());
        std::vector<UserId> batch_users;
        in_lockstep([&](auto& core, auto& placed) {
          batch_users.clear();
          for (const OnlineUserSpec& spec : specs)
            batch_users.push_back(core.AddUser(spec));
          core.PlaceUsersInterleaved(batch_users, [&](UserId u, MachineId m) {
            placed.emplace_back(u, m);
          });
        });
      } else if (roll < 55 && !running.empty()) {
        // Finish a random running task, then re-serve its machine.
        const std::size_t pick = rng.Below(running.size());
        const auto [user, machine] = running[pick];
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(pick));
        in_lockstep([&](auto& core, auto& placed) {
          core.OnTaskFinish(user, machine);
          core.ServeMachine(machine, [&](UserId u, MachineId m) {
            placed.emplace_back(u, m);
          });
        });
      } else if (roll < 75) {
        // Top up a live user's queue and greedily drain it.
        const UserId user = rng.Below(fast.num_users());
        if (fast.pending(user) == 0 && fast.running(user) == 0) continue;
        const long count = rng.Int(0, 6);
        in_lockstep([&](auto& core, auto& placed) {
          core.AddPending(user, count);
          core.PlaceUserGreedy(
              user, [&](MachineId m) { placed.emplace_back(user, m); });
        });
      } else if (roll < 90) {
        // Serve a random machine (often a no-op; must be a no-op in both).
        const MachineId machine = rng.Below(num_machines);
        in_lockstep([&](auto& core, auto& placed) {
          core.ServeMachine(machine, [&](UserId u, MachineId m) {
            placed.emplace_back(u, m);
          });
        });
      } else {
        // Retire a drained user, as the simulator does on job completion.
        for (UserId u = 0; u < fast.num_users(); ++u) {
          if (fast.pending(u) != 0 || fast.running(u) != 0) continue;
          in_lockstep([&](auto& core, auto& placed) {
            (void)placed;
            core.Retire(u);
          });
          break;
        }
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

class SchedulerDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerDifferential, LockstepPlacementIdentity) {
  RunLockstep(GetParam(), /*grouped=*/false);
}

TEST_P(SchedulerDifferential, LockstepPlacementIdentityOnClasses) {
  RunLockstep(GetParam(), /*grouped=*/true);
}

// 25 seeds x 6 policies x 2 fleets = 300 randomized scheduler-level combos.
INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerDifferential,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace tsf
