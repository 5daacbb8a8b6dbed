// Seeded offline instances shared by the filling tests: constrained
// single-class sharing problems and multi-class problems on small
// two-resource clusters, and the synthesized trace instances that
// tests/golden/offline_fill.txt pins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/offline/multiclass.h"
#include "trace/google.h"
#include "util/rng.h"

namespace tsf {

inline SharingProblem RandomSharing(std::size_t users, std::size_t machines,
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
    JobSpec job;
    job.id = i;
    job.name = "u" + std::to_string(i);
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

inline MultiClassProblem RandomMultiClass(std::size_t users,
                                          std::size_t machines,
                                          std::uint64_t seed) {
  Rng rng(seed);
  MultiClassProblem problem;
  for (std::size_t m = 0; m < machines; ++m) {
    ResourceVector capacity(2);
    capacity[0] = rng.Uniform(8.0, 24.0);
    capacity[1] = rng.Uniform(8.0, 32.0);
    problem.cluster.AddMachine(std::move(capacity));
  }
  for (UserId i = 0; i < users; ++i) {
    MultiClassJobSpec user;
    user.name = "u" + std::to_string(i);
    const std::size_t classes = static_cast<std::size_t>(rng.Int(1, 3));
    double mix_left = 1.0;
    for (std::size_t c = 0; c < classes; ++c) {
      ResourceVector demand(2);
      demand[0] = rng.Uniform(0.5, 3.0);
      demand[1] = rng.Uniform(0.5, 4.0);
      user.class_demand.push_back(std::move(demand));
      const double mix = c + 1 == classes ? mix_left
                                          : mix_left * rng.Uniform(0.2, 0.6);
      user.class_mix.push_back(mix);
      mix_left -= mix;
    }
    std::vector<MachineId> allowed;
    for (MachineId m = 0; m < machines; ++m)
      if (rng.Chance(0.8)) allowed.push_back(m);
    if (allowed.empty()) allowed.push_back(rng.Below(machines));
    if (allowed.size() < machines) user.constraint = Constraint::Whitelist(allowed);
    problem.users.push_back(std::move(user));
  }
  return problem;
}

struct TraceInstance {
  std::size_t machines;
  std::size_t jobs;
  std::uint64_t seed;
};

// The 30x16 instances are the first eight perfbench offline_fill instances
// of seed 1; the two 60x40 instances run 4-8 rounds on a larger form.
inline constexpr TraceInstance kGoldenTraceInstances[] = {
    {30, 16, 80}, {30, 16, 81}, {30, 16, 82}, {30, 16, 83},
    {30, 16, 84}, {30, 16, 85}, {30, 16, 86}, {30, 16, 87},
    {60, 40, 4},  {60, 40, 11}};
// Multi-class instances RandomMultiClass(6, 5, seed) of the golden file.
inline constexpr std::uint64_t kGoldenMultiClassSeeds[] = {1, 2, 3, 4};

inline CompiledProblem CompileTrace(const TraceInstance& instance) {
  trace::GoogleTraceConfig config;
  config.num_machines = instance.machines;
  config.num_jobs = instance.jobs;
  config.seed = instance.seed;
  Workload workload = trace::SynthesizeGoogleWorkload(config);
  SharingProblem problem;
  problem.cluster = std::move(workload.cluster);
  for (SimJob& job : workload.jobs) problem.jobs.push_back(std::move(job.spec));
  return Compile(problem);
}

}  // namespace tsf
