// Trace-scale end-to-end benchmark: 10k/100k-machine Google-style fleets
// pushed through the full DES, reporting placement throughput (tasks/sec)
// and peak RSS into BENCH_scale.json.
//
// Lanes (run in ascending memory-footprint order, because getrusage peak
// RSS is process-monotone — a big lane would mask every later one):
//
//   scale_smoke_10k  — 10k machines, ~60k tasks (CI lane)
//   scale_10k        — 10k machines, ~1.2M tasks
//   scale_100k       — 100k machines, ~1.2M tasks
//
// --smoke keeps just the smoke lane.
//
// Unlike bench_perf_core this is a plain binary, not google-benchmark: each
// lane is minutes-scale, one iteration is statistically fine, and we need
// getrusage between lanes.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/online/policy.h"
#include "sim/des.h"
#include "trace/google.h"
#include "util/check.h"
#include "util/flags.h"

namespace tsf {
namespace {

double PeakRssMb() {
  struct rusage usage {};
  TSF_CHECK_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct LaneResult {
  std::string name;
  std::size_t machines = 0;
  std::size_t tasks = 0;
  double seconds = 0.0;
  double items_per_second = 0.0;
  double peak_rss_mb = 0.0;   // process peak at lane end (monotone)
  double rss_delta_mb = 0.0;  // growth during the lane
};

LaneResult RunLane(const std::string& name, const Workload& workload) {
  LaneResult lane;
  lane.name = name;
  lane.machines = workload.cluster.num_machines();
  lane.tasks = workload.TotalTasks();
  const double rss_before = PeakRssMb();
  const auto start = std::chrono::steady_clock::now();
  const SimResult result = Simulate(workload, OnlinePolicy::Tsf());
  const auto stop = std::chrono::steady_clock::now();
  TSF_CHECK_EQ(result.tasks.size(), lane.tasks);
  lane.seconds = std::chrono::duration<double>(stop - start).count();
  lane.items_per_second = static_cast<double>(lane.tasks) / lane.seconds;
  lane.peak_rss_mb = PeakRssMb();
  lane.rss_delta_mb = lane.peak_rss_mb - rss_before;
  std::printf("%-26s %9zu machines %9zu tasks %8.2fs %12.0f tasks/s  rss %7.1f MB (+%.1f)\n",
              lane.name.c_str(), lane.machines, lane.tasks, lane.seconds,
              lane.items_per_second, lane.peak_rss_mb, lane.rss_delta_mb);
  std::fflush(stdout);
  return lane;
}

Workload MakeWorkload(std::size_t num_machines, std::size_t num_jobs,
                      std::uint64_t seed) {
  trace::GoogleTraceConfig config;
  config.num_machines = num_machines;
  config.num_jobs = num_jobs;
  // A profile menu keeps the fleet collapsible (~10 platforms x 8 profiles
  // of attribute sets); 0 would make nearly every machine unique at this
  // scale. See GoogleTraceConfig::num_attribute_profiles.
  config.num_attribute_profiles = 8;
  config.seed = seed;
  return trace::SynthesizeGoogleWorkload(config);
}

int Main(int argc, char** argv) {
  const Flags flags(
      argc, argv,
      {{"smoke", "run only the reduced-size 10k lane (CI gate)"},
       {"out", "output JSON path (default BENCH_scale.json)"},
       {"seed", "workload seed (default 1)"}});
  const bool smoke = flags.GetBool("smoke", false);
  const std::string out_path = flags.GetString("out", "BENCH_scale.json");
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));

  // ~40 tasks/job on average: 2k jobs ~ 80k tasks (smoke), 25k jobs ~ 1M.
  constexpr std::size_t kSmokeJobs = 2000;
  constexpr std::size_t kFullJobs = 25000;

  std::vector<LaneResult> lanes;
  lanes.push_back(
      RunLane("scale_smoke_10k", MakeWorkload(10000, kSmokeJobs, seed)));
  if (!smoke) {
    lanes.push_back(RunLane("scale_10k", MakeWorkload(10000, kFullJobs, seed)));
    lanes.push_back(
        RunLane("scale_100k", MakeWorkload(100000, kFullJobs, seed)));
  }

  std::ofstream out(out_path);
  TSF_CHECK(out.good()) << "cannot write " << out_path;
  out << "{\n  \"context\": {\n"
      << "    \"tsf_build_type\": \""
#ifdef NDEBUG
      << "release"
#else
      << "debug"
#endif
      << "\",\n    \"seed\": " << seed
      << ",\n    \"peak_rss_note\": \"ru_maxrss is process-monotone; lanes run"
         " in ascending footprint order and rss_delta_mb is the growth during"
         " the lane\"\n  },\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const LaneResult& lane = lanes[i];
    out << "    {\"name\": \"" << lane.name << "\", \"machines\": " << lane.machines
        << ", \"tasks\": " << lane.tasks << ", \"real_time\": " << lane.seconds
        << ", \"time_unit\": \"s\", \"items_per_second\": " << lane.items_per_second
        << ", \"peak_rss_mb\": " << lane.peak_rss_mb
        << ", \"rss_delta_mb\": " << lane.rss_delta_mb << "}"
        << (i + 1 < lanes.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace tsf

int main(int argc, char** argv) { return tsf::Main(argc, argv); }
