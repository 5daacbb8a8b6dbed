// Engineering microbenchmarks (google-benchmark): the cost of the solver
// primitives behind the reproduction — offline progressive filling and its
// warm FREEZE probe, the online scheduler's serve loop, and a full
// trace-driven simulation step. Not a paper artifact; documents the
// laptop-scale budget every harness in this repo runs within.
#include <benchmark/benchmark.h>

#include "core/offline/filling_engine.h"
#include "core/offline/policies.h"
#include "core/online/scheduler.h"
#include "sim/des.h"
#include "trace/google.h"
#include "util/rng.h"

namespace tsf {
namespace {

// --- Offline progressive filling on random constrained instances. ---
SharingProblem RandomSharing(std::size_t users, std::size_t machines,
                             std::uint64_t seed) {
  Rng rng(seed);
  SharingProblem problem;
  for (std::size_t m = 0; m < machines; ++m) {
    ResourceVector capacity(2);
    capacity[0] = rng.Uniform(8.0, 32.0);
    capacity[1] = rng.Uniform(8.0, 64.0);
    problem.cluster.AddMachine(std::move(capacity));
  }
  for (UserId i = 0; i < users; ++i) {
    JobSpec job{.id = i, .name = "u" + std::to_string(i)};
    ResourceVector demand(2);
    demand[0] = rng.Uniform(0.5, 4.0);
    demand[1] = rng.Uniform(0.5, 8.0);
    job.demand = std::move(demand);
    std::vector<MachineId> allowed;
    for (MachineId m = 0; m < machines; ++m)
      if (rng.Chance(0.7)) allowed.push_back(m);
    if (allowed.empty()) allowed.push_back(rng.Below(machines));
    if (allowed.size() < machines) job.constraint = Constraint::Whitelist(allowed);
    problem.jobs.push_back(std::move(job));
  }
  return problem;
}

void BM_ProgressiveFillingTsf(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  const CompiledProblem problem = Compile(RandomSharing(users, users, 11));
  for (auto _ : state) {
    const FillingResult result = SolveTsf(problem);
    benchmark::DoNotOptimize(result.shares.data());
  }
}
BENCHMARK(BM_ProgressiveFillingTsf)->RangeMultiplier(2)->Range(2, 64);

// --- One warm FREEZE probe branching off a solved round LP: copy the
// simplex state into the engine's scratch state, make the probed user's
// share the objective, re-solve warm up to the saturation threshold. ---
void BM_FreezeProbe(benchmark::State& state) {
  const CompiledProblem problem = Compile(RandomSharing(16, 16, 11));
  const EdgeLayout layout(problem);
  FillingEngine engine(
      MakeFillingSpec(problem, layout, TsfDenominator(problem)));
  double level = 0.0;
  std::vector<double> x;
  TSF_CHECK(engine.SolveRound(&level, &x));
  std::vector<bool> probe(problem.num_users, false);
  probe[0] = true;
  std::vector<double> max_share;
  for (auto _ : state) {
    engine.ProbeMaxShares(probe, /*stop_at_threshold=*/true, &max_share);
    benchmark::DoNotOptimize(max_share.data());
  }
}
BENCHMARK(BM_FreezeProbe);

// --- Online scheduler: steady-state serve loop. ---
void BM_OnlineServeMachine(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  std::vector<ResourceVector> machines(50, ResourceVector{1.0, 1.0});
  OnlineScheduler scheduler(std::move(machines), OnlinePolicy::Tsf());
  Rng rng(3);
  for (UserId i = 0; i < users; ++i) {
    OnlineUserSpec spec;
    spec.demand = ResourceVector{0.05, 0.05};
    DynamicBitset eligible(50);
    for (std::size_t m = 0; m < 50; ++m)
      if (rng.Chance(0.5)) eligible.Set(m);
    if (eligible.None()) eligible.Set(0);
    spec.eligible = std::move(eligible);
    spec.h = spec.g = 1000;
    spec.pending = 1 << 20;
    scheduler.AddUser(std::move(spec));
  }
  for (auto _ : state) {
    // Keep the cluster churning: serve a machine, then complete everything
    // placed so the next iteration sees the same state.
    std::vector<std::pair<UserId, MachineId>> placed;
    scheduler.ServeMachine(7, [&](UserId u, MachineId m) { placed.emplace_back(u, m); });
    for (const auto& [u, m] : placed) scheduler.OnTaskFinish(u, m);
    benchmark::DoNotOptimize(placed.size());
  }
}
BENCHMARK(BM_OnlineServeMachine)->RangeMultiplier(4)->Range(4, 256);

// --- End-to-end trace simulation throughput (tasks/second). ---
void BM_TraceSimulation(benchmark::State& state) {
  trace::GoogleTraceConfig config;
  config.num_machines = 200;
  config.num_jobs = 500;
  config.seed = 5;
  const Workload workload = trace::SynthesizeGoogleWorkload(config);
  for (auto _ : state) {
    const SimResult result = Simulate(workload, OnlinePolicy::Tsf());
    benchmark::DoNotOptimize(result.makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.TotalTasks()));
}
BENCHMARK(BM_TraceSimulation)->Unit(benchmark::kMillisecond);

// --- Workload synthesis throughput. ---
void BM_WorkloadSynthesis(benchmark::State& state) {
  trace::GoogleTraceConfig config;
  config.num_machines = 1000;
  config.num_jobs = 4500;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    const Workload workload = trace::SynthesizeGoogleWorkload(config);
    benchmark::DoNotOptimize(workload.TotalTasks());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4500);
}
BENCHMARK(BM_WorkloadSynthesis)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tsf

// How *this* binary was compiled. The library_build_type the JSON context
// already carries describes libbenchmark's own build, which is debug on
// some distro packages even when our code is optimized —
// tools/bench_regression.sh gates on this key instead so a debug-built
// baseline can never be recorded again.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("tsf_build_type", "release");
#else
  benchmark::AddCustomContext("tsf_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
