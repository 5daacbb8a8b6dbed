// SLO observatory report: sweeps the open-loop load driver (src/load)
// across arrival rates on both online substrates and writes BENCH_slo.json
// with p50/p95/p99 time-to-placement, queue-depth timelines, and the
// throughput-vs-latency curve per (substrate, policy) pair. Mesos lanes also
// carry the master's offer rounds and declines.
//
// Every reported figure except wall_seconds is derived from virtual time,
// so a lane is a deterministic function of (seed, rate, machines, duration,
// shape, policy, fault plan). The quantiles are exact nearest-rank order
// statistics over every placement. GoldenStreamTest pins the default
// sweep's rate-1 lanes (placement hash, makespan, p50/p95/p99).
//
// An optional --fault_plan=<file> (chaos text format, machine faults only)
// overlays the same crash/restart program on every lane; faulted lanes are
// suffixed "_faults" so they never share a name with fault-free lanes.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "load/driver.h"
#include "load/stream.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/text.h"

namespace tsf::load {
namespace {

std::vector<std::string> SplitCsv(const std::string& text) {
  std::vector<std::string> parts;
  std::stringstream stream(text);
  std::string part;
  while (std::getline(stream, part, ','))
    if (!part.empty()) parts.push_back(part);
  return parts;
}

std::string FormatRate(double rate) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", rate);
  return buffer;
}

std::string HashHex(std::uint64_t hash) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

// False for a name that is no arrival shape.
bool ParseShape(const std::string& name, ArrivalShape* shape) {
  if (name == "poisson") {
    *shape = ArrivalShape::kPoisson;
  } else if (name == "burst") {
    *shape = ArrivalShape::kBurst;
  } else if (name == "uniform") {
    *shape = ArrivalShape::kUniform;
  } else {
    return false;
  }
  return true;
}

// The comma-separated list in --`flag`; a usage error when it is empty or
// names something outside `allowed`.
std::vector<std::string> ParseChoices(const Flags& flags,
                                      const std::string& flag,
                                      const std::string& fallback,
                                      const std::vector<std::string>& allowed) {
  const std::vector<std::string> values =
      SplitCsv(flags.GetString(flag, fallback));
  if (values.empty()) flags.Fail("--" + flag + " lists nothing");
  for (const std::string& value : values) {
    if (std::find(allowed.begin(), allowed.end(), value) != allowed.end())
      continue;
    std::string want;
    for (const std::string& choice : allowed)
      want += (want.empty() ? "" : "|") + choice;
    flags.Fail("unknown value '" + value + "' in --" + flag + " (want " +
               want + ")");
  }
  return values;
}

// A class that drew no job has no placements and so no quantiles: its
// series is just {"count": 0}.
void AppendSeriesJson(std::ostream& out, const LatencySeries& series) {
  const EmpiricalCdf& ttp = series.ttp_ms;
  out << "{\"count\": " << ttp.count();
  if (!ttp.empty())
    out << ", \"mean\": " << ttp.Mean() << ", \"min\": " << ttp.Min()
        << ", \"max\": " << ttp.Max() << ", \"p50\": " << ttp.Quantile(0.50)
        << ", \"p95\": " << ttp.Quantile(0.95)
        << ", \"p99\": " << ttp.Quantile(0.99);
  out << "}";
}

void AppendLaneJson(std::ostream& out, const std::string& name,
                    const LoadReport& report) {
  out << "    {\"name\": \"" << name << "\", \"substrate\": \""
      << report.substrate << "\", \"policy\": \"" << report.policy
      << "\", \"rate\": " << report.rate << ",\n"
      << "     \"jobs\": " << report.total_jobs
      << ", \"tasks\": " << report.total_tasks
      << ", \"placements\": " << report.placements
      << ", \"requeues\": " << report.requeues
      << ", \"makespan\": " << report.makespan
      << ", \"wall_seconds\": " << report.wall_seconds << ",\n"
      << "     \"throughput_tasks_per_vsec\": "
      << (report.makespan > 0.0
              ? static_cast<double>(report.placements) / report.makespan
              : 0.0)
      << ", \"placement_hash\": \"" << HashHex(report.placement_hash) << "\"";
  if (report.substrate == "mesos")
    out << ", \"offer_rounds\": " << report.allocator.rounds
        << ", \"offers_declined\": " << report.allocator.offers_declined;
  out << ",\n     \"ttp_ms\": ";
  AppendSeriesJson(out, report.all);
  out << ",\n     \"per_class\": [";
  for (std::size_t c = 0; c < report.per_class.size(); ++c) {
    out << (c > 0 ? ", " : "") << "{\"class\": \""
        << report.per_class[c].label << "\", \"ttp_ms\": ";
    AppendSeriesJson(out, report.per_class[c]);
    out << "}";
  }
  out << "],\n     \"queue_depth\": [";
  for (std::size_t i = 0; i < report.queue_depth.size(); ++i)
    out << (i > 0 ? ", " : "") << "{\"t\": " << report.queue_depth[i].time
        << ", \"depth\": " << report.queue_depth[i].depth << "}";
  out << "]}";
}

int Main(int argc, char** argv) {
  const Flags flags(
      argc, argv,
      {{"rates", "comma-separated arrival rates, jobs/sec (default 0.5,1,2)"},
       {"machines", "fleet size, alternating big/small shapes (default 60)"},
       {"duration", "arrival window in virtual seconds (default 60)"},
       {"seed", "stream seed (default 1)"},
       {"shape", "arrival shape: poisson|burst|uniform (default poisson)"},
       {"substrates", "comma-separated subset of des,mesos (default both)"},
       {"policies", "comma-separated subset of tsf,drf (default both)"},
       {"queue_interval", "queue-depth sample period, vsec (default 1)"},
       {"out", "output JSON path (default BENCH_slo.json)"},
       {"fault_plan", "chaos fault-plan file overlaid on every lane"}});
  const std::string out_path = flags.GetString("out", "BENCH_slo.json");
  const std::string shape_name = flags.GetString("shape", "poisson");
  ArrivalShape shape = ArrivalShape::kPoisson;
  if (!ParseShape(shape_name, &shape))
    flags.Fail("unknown --shape '" + shape_name +
               "' (want poisson|burst|uniform)");
  const std::string plan_path = flags.GetString("fault_plan", "");
  const std::int64_t machines_flag = flags.GetInt("machines", 60);
  if (machines_flag <= 0) flags.Fail("--machines must be positive");
  const auto machines = static_cast<std::size_t>(machines_flag);
  const double duration = flags.GetDouble("duration", 60.0);
  if (duration <= 0.0) flags.Fail("--duration must be positive");
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const double queue_interval = flags.GetDouble("queue_interval", 1.0);
  if (queue_interval <= 0.0) flags.Fail("--queue_interval must be positive");

  std::vector<double> rates;
  for (const std::string& token :
       SplitCsv(flags.GetString("rates", "0.5,1,2"))) {
    double rate = 0.0;
    if (!ParseFiniteDouble(token, &rate) || rate <= 0.0)
      flags.Fail("bad rate '" + token +
                 "' in --rates: expected a positive number");
    rates.push_back(rate);
  }
  if (rates.empty()) flags.Fail("--rates lists nothing");
  const std::vector<std::string> substrates =
      ParseChoices(flags, "substrates", "des,mesos", {"des", "mesos"});
  const std::vector<std::string> policies =
      ParseChoices(flags, "policies", "tsf,drf", {"tsf", "drf"});

  // Optional fault overlay, compiled once per substrate. Machine faults
  // only: framework counts vary per lane, so framework-targeted kinds
  // cannot be validated against a single plan.
  std::vector<SimFault> des_faults;
  std::vector<mesos::Fault> mesos_faults;
  const bool faulted = !plan_path.empty();
  if (faulted) {
    std::ifstream in(plan_path);
    if (!in.good()) flags.Fail("cannot read --fault_plan " + plan_path);
    std::stringstream text;
    text << in.rdbuf();
    chaos::FaultPlan plan;
    std::string error;
    if (!chaos::ParseFaultPlan(text.str(), &plan, &error)) {
      std::fprintf(stderr, "error: %s: %s\n", plan_path.c_str(),
                   error.c_str());
      return 1;
    }
    const std::string defect = chaos::ValidateFaultPlan(plan, machines, 0);
    if (!defect.empty()) {
      std::fprintf(stderr, "error: %s: fault plan rejected: %s\n",
                   plan_path.c_str(), defect.c_str());
      return 1;
    }
    des_faults = chaos::CompileForDes(plan);
    mesos_faults = chaos::CompileForMesos(plan);
  }

  std::vector<std::pair<std::string, LoadReport>> lanes;
  std::printf("%-22s %7s %7s %9s %9s %9s %9s %7s\n", "lane", "jobs", "tasks",
              "makespan", "p50 ms", "p95 ms", "p99 ms", "wall s");
  for (const double rate : rates) {
    DriverConfig config;
    config.stream.rate = rate;
    config.stream.duration = duration;
    config.stream.seed = seed;
    config.stream.shape = shape;
    config.num_machines = machines;
    config.queue_sample_interval = queue_interval;
    for (const std::string& substrate : substrates) {
      for (const std::string& policy : policies) {
        LoadReport report;
        if (substrate == "des") {
          report = RunDesLoad(
              config, policy == "tsf" ? OnlinePolicy::Tsf() : OnlinePolicy::Drf(),
              des_faults);
        } else {
          report = RunMesosLoad(config,
                                policy == "tsf" ? mesos::AllocatorPolicy::kTsf
                                                : mesos::AllocatorPolicy::kDrf,
                                mesos_faults);
        }
        // The driver labels DES lanes with OnlinePolicy::name; normalize to
        // the short flag token so lane names are substrate-uniform.
        report.policy = policy;
        const std::string name = substrate + "_" + policy + "_r" +
                                 FormatRate(rate) +
                                 (faulted ? "_faults" : "");
        // GenerateArrivals guarantees a job, so `all` is never empty.
        const EmpiricalCdf& ttp = report.all.ttp_ms;
        std::printf("%-22s %7llu %7llu %9.2f %9.1f %9.1f %9.1f %7.3f\n",
                    name.c_str(),
                    static_cast<unsigned long long>(report.total_jobs),
                    static_cast<unsigned long long>(report.total_tasks),
                    report.makespan, ttp.Quantile(0.50), ttp.Quantile(0.95),
                    ttp.Quantile(0.99), report.wall_seconds);
        std::fflush(stdout);
        lanes.emplace_back(name, std::move(report));
      }
    }
  }

  std::ofstream out(out_path);
  TSF_CHECK(out.good()) << "cannot write " << out_path;
  out << "{\n  \"context\": {\n    \"tsf_build_type\": \""
#ifdef NDEBUG
      << "release"
#else
      << "debug"
#endif
      << "\",\n    \"seed\": " << seed << ",\n    \"machines\": " << machines
      << ",\n    \"duration\": " << duration << ",\n    \"shape\": \""
      << shape_name << "\",\n    \"queue_interval\": " << queue_interval
      << ",\n    \"smoke\": false"  // kept for the schema: always a full sweep
      << ",\n    \"fault_plan\": \"" << plan_path
      << "\",\n    \"latency_note\": \"ttp quantiles are exact nearest-rank "
         "order statistics over every placement\"\n  },\n  \"lanes\": [\n";
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    AppendLaneJson(out, lanes[i].first, lanes[i].second);
    out << (i + 1 < lanes.size() ? "," : "") << "\n";
  }
  // The throughput-vs-latency curve per (substrate, policy): one point per
  // rate, in sweep order. Offered load is tasks/duration (what the stream
  // pushed), served throughput is placements/makespan (what the substrate
  // absorbed); the p99 knee between them is the SLO story.
  out << "  ],\n  \"curves\": [\n";
  bool first_curve = true;
  for (const std::string& substrate : substrates) {
    for (const std::string& policy : policies) {
      if (!first_curve) out << ",\n";
      first_curve = false;
      out << "    {\"substrate\": \"" << substrate << "\", \"policy\": \""
          << policy << "\", \"points\": [";
      bool first_point = true;
      for (const auto& [name, report] : lanes) {
        if (report.substrate != substrate || report.policy != policy) continue;
        if (!first_point) out << ", ";
        first_point = false;
        out << "{\"rate\": " << report.rate << ", \"offered_tasks_per_vsec\": "
            << (static_cast<double>(report.total_tasks) / duration)
            << ", \"served_tasks_per_vsec\": "
            << (report.makespan > 0.0
                    ? static_cast<double>(report.placements) / report.makespan
                    : 0.0)
            << ", \"p50_ms\": " << report.all.ttp_ms.Quantile(0.50)
            << ", \"p95_ms\": " << report.all.ttp_ms.Quantile(0.95)
            << ", \"p99_ms\": " << report.all.ttp_ms.Quantile(0.99) << "}";
      }
      out << "]}";
    }
  }
  out << "\n  ]\n}\n";
  std::printf("wrote %s (%zu lanes)\n", out_path.c_str(), lanes.size());
  return 0;
}

}  // namespace
}  // namespace tsf::load

int main(int argc, char** argv) { return tsf::load::Main(argc, argv); }
