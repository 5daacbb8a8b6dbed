// Golden determinism tests: the placement streams of fixed (policy, seed)
// chaos scenarios are pinned by FNV-1a hash in tests/golden/, plus one
// fully-expanded stream for first-divergence diffing, the Mesos master's
// streams on a 1000-slave fleet, and the SLO observatory's rate-1 lanes
// with their exact time-to-placement quantiles. Any change to scheduler
// tie-breaking, event ordering, or fault semantics shows up here as an
// exact diff instead of a silent behavior shift.
//
// To bless intentional changes:  TSF_UPDATE_GOLDEN=1 ctest -R GoldenStream
// (rewrites the files under tests/golden/, then commit the diff).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/scenario.h"
#include "load/driver.h"
#include "util/text.h"

namespace tsf::chaos {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4};
constexpr const char* kHashFile = TSF_GOLDEN_DIR "/stream_hashes.txt";
// The fully-expanded stream kept for first-divergence diffs.
constexpr const char* kStreamFile = TSF_GOLDEN_DIR "/des_TSF_seed1.stream";

bool UpdateMode() { return std::getenv("TSF_UPDATE_GOLDEN") != nullptr; }

std::string HashHex(std::uint64_t hash) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

// Lane goldens hold one "<lane> <fields...>" line per lane below '#'
// comment lines. `lines` maps each lane to its full line.
void WriteLaneGolden(const char* path, const std::string& fields,
                     const std::map<std::string, std::string>& lines) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << "# lane -> " << fields << ";\n"
      << "# regenerate with TSF_UPDATE_GOLDEN=1 ctest -R GoldenStream\n";
  for (const auto& [name, line] : lines) out << line << "\n";
}

void ExpectLaneGolden(const char* path,
                      const std::map<std::string, std::string>& lines) {
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path
                         << "; run once with TSF_UPDATE_GOLDEN=1";
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    golden[line.substr(0, line.find(' '))] = line;
  }
  EXPECT_EQ(golden.size(), lines.size());
  for (const auto& [name, lane] : lines) {
    const auto it = golden.find(name);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden entry for '" << name << "'";
      continue;
    }
    EXPECT_EQ(lane, it->second)
        << "a deliberate behavior change needs TSF_UPDATE_GOLDEN=1";
  }
}

// key -> hash, where key is "des <policy> seed=<s>", "des-collapsed
// <policy> seed=<s>", or "mesos seed=<s>".
std::map<std::string, std::string> ComputeHashes() {
  std::map<std::string, std::string> hashes;
  for (const std::uint64_t seed : kSeeds) {
    const DesScenario scenario = RandomDesScenario(seed);
    for (const OnlinePolicy& policy : AllOnlinePolicies()) {
      const ScenarioReport report =
          RunDesScenario(scenario.workload, policy, scenario.plan);
      EXPECT_TRUE(report.ok())
          << policy.name << " seed " << seed << ": "
          << ToString(report.violations.front());
      hashes["des " + policy.name + " seed=" + std::to_string(seed)] =
          HashHex(report.stream_hash);
    }
    // Uniform scenarios: the workloads' machines fall into a few
    // multi-member equivalence classes, which whitelists split.
    const DesScenario uniform = RandomUniformDesScenario(seed);
    for (const OnlinePolicy& policy : AllOnlinePolicies()) {
      const ScenarioReport collapsed =
          RunDesScenario(uniform.workload, policy, uniform.plan);
      EXPECT_TRUE(collapsed.ok())
          << "collapsed " << policy.name << " seed " << seed << ": "
          << ToString(collapsed.violations.front());
      hashes["des-collapsed " + policy.name + " seed=" + std::to_string(seed)] =
          HashHex(collapsed.stream_hash);
    }
    const ScenarioReport mesos = RunMesosScenario(RandomMesosScenario(seed));
    EXPECT_TRUE(mesos.ok())
        << "mesos seed " << seed << ": " << ToString(mesos.violations.front());
    hashes["mesos seed=" + std::to_string(seed)] = HashHex(mesos.stream_hash);
  }
  return hashes;
}

TEST(GoldenStreamTest, HashesMatchGolden) {
  const std::map<std::string, std::string> hashes = ComputeHashes();

  if (UpdateMode()) {
    std::ofstream out(kHashFile);
    ASSERT_TRUE(out.good()) << "cannot write " << kHashFile;
    out << "# (policy, seed) -> FNV-1a stream hash; regenerate with\n"
        << "# TSF_UPDATE_GOLDEN=1 ctest -R GoldenStream\n";
    for (const auto& [key, hash] : hashes) out << key << " " << hash << "\n";
    GTEST_SKIP() << "golden hashes rewritten (" << hashes.size()
                 << " entries)";
  }

  std::ifstream in(kHashFile);
  ASSERT_TRUE(in.good()) << "missing " << kHashFile
                         << "; run once with TSF_UPDATE_GOLDEN=1";
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    const std::size_t split = line.rfind(' ');
    ASSERT_NE(split, std::string::npos) << "malformed golden line: " << line;
    golden[line.substr(0, split)] = line.substr(split + 1);
  }

  EXPECT_EQ(golden.size(), hashes.size());
  for (const auto& [key, hash] : hashes) {
    const auto it = golden.find(key);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden entry for '" << key << "'";
      continue;
    }
    EXPECT_EQ(it->second, hash)
        << "stream hash changed for '" << key
        << "' — a deliberate behavior change needs TSF_UPDATE_GOLDEN=1";
  }
}

TEST(GoldenStreamTest, FullStreamMatchesWithFirstDivergenceDiff) {
  const DesScenario scenario = RandomDesScenario(1);
  const ScenarioReport report =
      RunDesScenario(scenario.workload, OnlinePolicy::Tsf(), scenario.plan);
  std::vector<std::string> lines;
  for (const StreamEvent& event : report.stream)
    lines.push_back(FormatStreamEvent(event));

  if (UpdateMode()) {
    std::ofstream out(kStreamFile);
    ASSERT_TRUE(out.good()) << "cannot write " << kStreamFile;
    for (const std::string& line : lines) out << line << "\n";
    GTEST_SKIP() << "golden stream rewritten (" << lines.size() << " events)";
  }

  std::ifstream in(kStreamFile);
  ASSERT_TRUE(in.good()) << "missing " << kStreamFile
                         << "; run once with TSF_UPDATE_GOLDEN=1";
  std::vector<std::string> golden;
  std::string line;
  while (std::getline(in, line)) golden.push_back(line);

  const std::size_t n = std::min(golden.size(), lines.size());
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(lines[i], golden[i])
        << "first divergence at event #" << i << " of " << lines.size();
  EXPECT_EQ(lines.size(), golden.size())
      << "streams agree on the first " << n << " events but lengths differ";
}

// Same-time finishes. The DES pops finishes that share a timestamp in its
// event heap's order; that order shows in the stream (finish and retire
// order) and, under faults, picks each task failure's victim (the last
// task on the machine's running list, which finishes reorder by
// swap-removal). The random scenarios above have almost no ties, so this
// lane is built for them: integral arrival waves and constant runtimes on
// a cluster of four 3-machine classes, once plain and once with task
// failures (some at finish times).
constexpr const char* kTieFile = TSF_GOLDEN_DIR "/des_tie_order.txt";

Workload TieHeavyWorkload() {
  Workload workload;
  for (std::size_t m = 0; m < 12; ++m) {
    AttributeSet attributes;
    if (m % 2 == 0) attributes.Add(0);
    workload.cluster.AddMachine(m % 4 < 2 ? ResourceVector{4.0, 4.0}
                                          : ResourceVector{8.0, 4.0},
                                std::move(attributes));
  }
  constexpr double kRuntimes[] = {2.0, 3.0, 4.0, 6.0};
  for (std::size_t j = 0; j < 12; ++j) {
    JobSpec spec;
    spec.id = j;
    spec.name = "j" + std::to_string(j);
    spec.demand = ResourceVector{j % 3 == 0 ? 2.0 : 1.0, 1.0};
    spec.arrival_time = 5.0 * static_cast<double>(j / 4);
    spec.num_tasks = 10 + static_cast<long>(7 * j % 19);
    if (j % 4 == 1) {
      spec.constraint = Constraint::RequireAttributes(AttributeSet({0}));
    } else if (j % 4 == 2) {
      spec.constraint = Constraint::Whitelist({1, 2, 5, 8, 9, 11});
    }
    workload.jobs.push_back(MakeUniformJob(std::move(spec), kRuntimes[j % 4]));
  }
  return workload;
}

FaultPlan TieFailurePlan() {
  FaultPlan plan;
  for (std::size_t k = 0; k < 24; ++k)
    plan.events.push_back(FaultSpec{2.0 + 1.5 * static_cast<double>(k),
                                    FaultKind::kTaskFailure, (5 * k) % 12,
                                    0.0});
  return plan;
}

TEST(GoldenStreamTest, SameTimeFinishOrderMatchesGolden) {
  const Workload workload = TieHeavyWorkload();
  std::map<std::string, std::string> lanes;
  for (const bool faulted : {false, true}) {
    const FaultPlan plan = faulted ? TieFailurePlan() : FaultPlan{};
    for (const OnlinePolicy& policy : AllOnlinePolicies()) {
      const ScenarioReport report = RunDesScenario(workload, policy, plan);
      const std::string name =
          std::string(faulted ? "collapsed_failures " : "collapsed ") +
          policy.name;
      EXPECT_TRUE(report.ok())
          << name << ": " << ToString(report.violations.front());
      long finishes = 0;
      long tied = 0;
      long failures = 0;
      double last_finish = -1.0;
      for (const StreamEvent& event : report.stream) {
        if (event.kind == StreamEvent::Kind::kFail) ++failures;
        if (event.kind != StreamEvent::Kind::kFinish) continue;
        ++finishes;
        if (event.time == last_finish) ++tied;
        last_finish = event.time;
      }
      // The lane must keep exercising what it pins.
      EXPECT_GT(2 * tied, finishes) << name;
      if (faulted) {
        EXPECT_GT(failures, 5) << name;
      }
      lanes[name] = HashHex(report.stream_hash) +
                    " finishes=" + std::to_string(finishes) +
                    " tied=" + std::to_string(tied) +
                    " failures=" + std::to_string(failures);
    }
  }

  if (UpdateMode()) {
    std::ofstream out(kTieFile);
    ASSERT_TRUE(out.good()) << "cannot write " << kTieFile;
    out << "# lane -> stream hash and finish/tie/failure counts; regenerate\n"
        << "# with TSF_UPDATE_GOLDEN=1 ctest -R GoldenStream\n";
    for (const auto& [name, line] : lanes) out << name << " " << line << "\n";
    GTEST_SKIP() << "tie-order goldens rewritten (" << lanes.size()
                 << " lanes)";
  }

  std::ifstream in(kTieFile);
  ASSERT_TRUE(in.good()) << "missing " << kTieFile
                         << "; run once with TSF_UPDATE_GOLDEN=1";
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    const std::size_t split = line.find(' ', line.find(' ') + 1);
    ASSERT_NE(split, std::string::npos) << "malformed golden line: " << line;
    golden[line.substr(0, split)] = line.substr(split + 1);
  }
  EXPECT_EQ(golden.size(), lanes.size());
  for (const auto& [name, lane] : lanes) {
    const auto it = golden.find(name);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden entry for '" << name << "'";
      continue;
    }
    EXPECT_EQ(lane, it->second)
        << "same-time finish order changed for '" << name
        << "' — a deliberate behavior change needs TSF_UPDATE_GOLDEN=1";
  }
}

// The Mesos master on the 1000-slave observatory fleet
// (load::MakeLoadSlaves), where the chaos scenarios' 2-4 slaves never
// exercise the contention order or multi-word slave bitsets: TSF and DRF at
// 12 and 20 jobs/s over a 120 s window (stream seed 1), with and without
// the machine-fault overlay in kFleetPlanFile. Each lane pins the load
// driver's placement hash and two offer counters. Lane names and hashes
// match `slo_report --machines 1000 --duration 120 --rates 12,20
// --substrates mesos [--fault_plan tests/golden/mesos_fleet1000.plan]`.
constexpr const char* kFleetFile = TSF_GOLDEN_DIR "/mesos_fleet1000.txt";
constexpr const char* kFleetPlanFile = TSF_GOLDEN_DIR "/mesos_fleet1000.plan";
constexpr std::size_t kFleetSlaves = 1000;

TEST(GoldenStreamTest, MesosFleetStreamsMatchGolden) {
  std::ifstream plan_in(kFleetPlanFile);
  ASSERT_TRUE(plan_in.good()) << "missing " << kFleetPlanFile;
  std::stringstream plan_text;
  plan_text << plan_in.rdbuf();
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(plan_text.str(), &plan, &error)) << error;
  ASSERT_EQ(ValidateFaultPlan(plan, kFleetSlaves, 0), "");
  const std::vector<mesos::Fault> faults = CompileForMesos(plan);

  std::map<std::string, std::string> lanes;
  for (const bool faulted : {false, true})
    for (const int rate : {12, 20})
      for (const mesos::AllocatorPolicy policy :
           {mesos::AllocatorPolicy::kTsf, mesos::AllocatorPolicy::kDrf}) {
        load::DriverConfig config;
        config.stream.rate = rate;
        config.stream.duration = 120.0;
        config.stream.seed = 1;
        config.num_machines = kFleetSlaves;
        const load::LoadReport report = load::RunMesosLoad(
            config, policy, faulted ? faults : std::vector<mesos::Fault>{});
        const mesos::AllocatorStats& stats = report.allocator;
        const std::string name =
            std::string("mesos_") +
            (policy == mesos::AllocatorPolicy::kTsf ? "tsf" : "drf") + "_r" +
            std::to_string(rate) + (faulted ? "_faults" : "");
        lanes[name] = name + " 0x" + HashHex(report.placement_hash) +
                      " rounds=" + std::to_string(stats.rounds) +
                      " declined=" + std::to_string(stats.offers_declined);
        if (UpdateMode()) continue;
        // One fit query per offer that reaches a framework: it launches a
        // task or declines.
        EXPECT_EQ(stats.probes, stats.offers_accepted + stats.offers_declined)
            << name;
        EXPECT_EQ(stats.offers_accepted,
                  static_cast<long>(report.placements))
            << name;
        if (faulted) {
          EXPECT_GT(report.requeues, 0u) << name;
          EXPECT_GT(stats.down_slave_skips, 0) << name;
        }
      }

  if (UpdateMode()) {
    WriteLaneGolden(kFleetFile,
                    "load-driver placement hash, offer rounds, declines",
                    lanes);
    GTEST_SKIP() << "fleet goldens rewritten (" << lanes.size() << " lanes)";
  }
  ExpectLaneGolden(kFleetFile, lanes);
}

// The SLO observatory's rate-1 lanes: slo_report's default sweep (60
// machines, 60 s Poisson window, stream seed 1) on both substrates under
// TSF and DRF. Each lane pins the load driver's placement hash, the
// makespan, and the exact p50/p95/p99 time-to-placement over every task,
// all written in round-trip form. The lanes are fault-free, so each must
// drain with one placement per task and no requeue.
constexpr const char* kSloFile = TSF_GOLDEN_DIR "/slo_rate1.txt";

TEST(GoldenStreamTest, SloRateOneLanesMatchGolden) {
  std::map<std::string, std::string> lanes;
  for (const bool on_mesos : {false, true})
    for (const bool tsf : {true, false}) {
      load::DriverConfig config;
      config.stream.rate = 1.0;
      const load::LoadReport report =
          on_mesos ? load::RunMesosLoad(config,
                                        tsf ? mesos::AllocatorPolicy::kTsf
                                            : mesos::AllocatorPolicy::kDrf)
                   : load::RunDesLoad(config, tsf ? OnlinePolicy::Tsf()
                                                  : OnlinePolicy::Drf());
      const std::string name = std::string(on_mesos ? "mesos" : "des") +
                               (tsf ? "_tsf" : "_drf") + "_r1";
      const EmpiricalCdf& ttp = report.all.ttp_ms;
      EXPECT_EQ(report.placements, report.total_tasks) << name;
      EXPECT_EQ(report.requeues, 0u) << name;
      ASSERT_EQ(ttp.count(), report.total_tasks) << name;
      const double p50 = ttp.Quantile(0.50);
      const double p95 = ttp.Quantile(0.95);
      const double p99 = ttp.Quantile(0.99);
      EXPECT_LE(p50, p95) << name;
      EXPECT_LE(p95, p99) << name;
      lanes[name] = name + " 0x" + HashHex(report.placement_hash) +
                    " makespan=" + FormatDouble(report.makespan) +
                    " p50=" + FormatDouble(p50) + " p95=" + FormatDouble(p95) +
                    " p99=" + FormatDouble(p99);
    }

  if (UpdateMode()) {
    WriteLaneGolden(kSloFile,
                    "placement hash, makespan, exact all-task TTP "
                    "p50/p95/p99 (ms)",
                    lanes);
    GTEST_SKIP() << "SLO goldens rewritten (" << lanes.size() << " lanes)";
  }
  ExpectLaneGolden(kSloFile, lanes);
}

}  // namespace
}  // namespace tsf::chaos
