// Determinism of the parallel FREEZE step: fanning freeze probes out over a
// thread pool must produce a FillingResult bit-identical to the serial
// reference — same allocation, freeze rounds, and round levels — because
// every probe is a pure function of the solved round LP and the reduction
// walks users in index order. Also diffs the warm revised engine against the
// dense executable-spec engine on the same seed grid (agreement to LP
// tolerance, not bitwise: the two solvers may pick different optimal
// vertices of degenerate programs).

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/offline/multiclass.h"
#include "core/offline/policies.h"
#include "random_instances.h"
#include "util/thread_pool.h"

namespace tsf {
namespace {

void ExpectBitIdentical(const FillingResult& a, const FillingResult& b,
                        const CompiledProblem& problem, std::uint64_t seed) {
  ASSERT_EQ(a.freeze_round, b.freeze_round) << "seed " << seed;
  ASSERT_EQ(a.round_levels, b.round_levels) << "seed " << seed;
  ASSERT_EQ(a.shares, b.shares) << "seed " << seed;
  for (UserId i = 0; i < problem.num_users; ++i)
    for (MachineId m = 0; m < problem.num_machines; ++m)
      ASSERT_EQ(a.allocation.tasks(i, m), b.allocation.tasks(i, m))
          << "seed " << seed << " user " << i << " machine " << m;
}

TEST(FillingDeterminismTest, ParallelFreezeMatchesSerialBitForBit) {
  ThreadPool pool(4);
  FillingOptions parallel;
  parallel.pool = &pool;
  for (const std::size_t users : {3u, 6u, 10u, 14u}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const CompiledProblem problem =
          Compile(RandomSharing(users, users, seed));
      const FillingResult serial = SolveTsf(problem);
      const FillingResult fanned = SolveTsf(problem, parallel);
      ExpectBitIdentical(serial, fanned, problem, seed);
    }
  }
}

TEST(FillingDeterminismTest, SerialProbesFlagForcesReferencePath) {
  ThreadPool pool(4);
  FillingOptions forced_serial;
  forced_serial.pool = &pool;
  forced_serial.serial_probes = true;
  const CompiledProblem problem = Compile(RandomSharing(8, 8, 42));
  const FillingResult serial = SolveTsf(problem);
  const FillingResult forced = SolveTsf(problem, forced_serial);
  ExpectBitIdentical(serial, forced, problem, 42);
}

TEST(FillingDeterminismTest, ParallelMatchesSerialAcrossPolicies) {
  ThreadPool pool(4);
  FillingOptions parallel;
  parallel.pool = &pool;
  const CompiledProblem problem = Compile(RandomSharing(9, 7, 17));
  for (const OfflinePolicy policy :
       {OfflinePolicy::kTsf, OfflinePolicy::kCdrf, OfflinePolicy::kDrfh,
        OfflinePolicy::kPerMachineDrf}) {
    const FillingResult serial = SolveOffline(policy, problem);
    const FillingResult fanned = SolveOffline(policy, problem, 0, parallel);
    ExpectBitIdentical(serial, fanned, problem, 17);
  }
}

TEST(FillingDeterminismTest, MultiClassParallelMatchesSerialBitForBit) {
  ThreadPool pool(4);
  FillingOptions parallel;
  parallel.pool = &pool;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const CompiledMultiClass problem =
        CompileMultiClass(RandomMultiClass(6, 5, seed));
    const MultiClassResult serial = SolveMultiClassTsf(problem);
    const MultiClassResult fanned = SolveMultiClassTsf(problem, parallel);
    ASSERT_EQ(serial.shares, fanned.shares) << "seed " << seed;
    ASSERT_EQ(serial.allocation.tasks, fanned.allocation.tasks)
        << "seed " << seed;
  }
}

TEST(FillingDeterminismTest, WarmEngineAgreesWithDenseSpecEngine) {
  FillingOptions dense;
  dense.use_dense_engine = true;
  for (const std::size_t users : {4u, 8u, 12u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const CompiledProblem problem =
          Compile(RandomSharing(users, users, seed));
      const FillingResult warm = SolveTsf(problem);
      const FillingResult spec = SolveTsf(problem, dense);
      ASSERT_EQ(warm.round_levels.size(), spec.round_levels.size())
          << "seed " << seed;
      for (std::size_t r = 0; r < warm.round_levels.size(); ++r)
        EXPECT_NEAR(warm.round_levels[r], spec.round_levels[r], 1e-6)
            << "seed " << seed << " round " << r;
      ASSERT_EQ(warm.freeze_round, spec.freeze_round) << "seed " << seed;
      for (UserId i = 0; i < problem.num_users; ++i)
        EXPECT_NEAR(warm.shares[i], spec.shares[i], 1e-6)
            << "seed " << seed << " user " << i;
    }
  }
}

}  // namespace
}  // namespace tsf
