// Repro visualizer: replays a committed chaos repro (src/chaos/repro.h) and
// renders the recorded scheduler stream for humans.
//
// Two output formats:
//   --format=trace  Chrome/Perfetto trace-event JSON (load in ui.perfetto.dev
//                   or chrome://tracing). Machines are threads of a
//                   "machines" process: each task is a span from placement
//                   to finish/kill/fail, each crash..restart window is a
//                   "DOWN" span, requeue events are instants. Users are
//                   threads of a "users" process (arrival instants,
//                   disconnect..re-register spans). Invariant violations —
//                   the reason the repro exists — land on a "checker"
//                   process as instants carrying the violation detail.
//   --format=dot    Graphviz placement graph: user -> machine edges labeled
//                   with placement/kill/fail counts, violations as red
//                   octagons attached to the event's machine.
//
// Times are virtual seconds; the trace encodes them as microseconds (the
// trace-event unit), so 1 virtual second reads as 1 ms in the viewer with
// displayTimeUnit=ms.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "chaos/repro.h"
#include "telemetry/metrics.h"
#include "util/check.h"
#include "util/flags.h"

namespace tsf::chaos {
namespace {

using Kind = StreamEvent::Kind;

constexpr int kMachinesPid = 1;
constexpr int kUsersPid = 2;
constexpr int kCheckerPid = 3;

long Micros(double seconds) { return static_cast<long>(seconds * 1e6); }

std::string Escaped(const std::string& text) {
  std::string out;
  telemetry::AppendJsonEscaped(out, text);
  return out;
}

void EmitMeta(std::ostream& out, int pid, const std::string& process,
              const std::map<std::uint32_t, std::string>& threads) {
  out << "  {\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " << pid
      << ", \"args\": {\"name\": \"" << process << "\"}},\n";
  for (const auto& [tid, name] : threads)
    out << "  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " << pid
        << ", \"tid\": " << tid << ", \"args\": {\"name\": \"" << name
        << "\"}},\n";
}

void EmitSpan(std::ostream& out, int pid, std::uint32_t tid,
              const std::string& name, const std::string& cat, double start,
              double end, const std::string& args) {
  out << "  {\"ph\": \"X\", \"pid\": " << pid << ", \"tid\": " << tid
      << ", \"name\": \"" << name << "\", \"cat\": \"" << cat
      << "\", \"ts\": " << Micros(start)
      << ", \"dur\": " << Micros(end - start) << ", \"args\": {" << args
      << "}},\n";
}

void EmitInstant(std::ostream& out, int pid, std::uint32_t tid,
                 const std::string& name, const std::string& cat, double time,
                 const std::string& args) {
  out << "  {\"ph\": \"i\", \"s\": \"t\", \"pid\": " << pid
      << ", \"tid\": " << tid << ", \"name\": \"" << name << "\", \"cat\": \""
      << cat << "\", \"ts\": " << Micros(time) << ", \"args\": {" << args
      << "}},\n";
}

// An open task span: placement instant waiting for its finish/kill/fail.
struct OpenTask {
  double start = 0.0;
  std::uint32_t user = 0;
  std::uint32_t machine = 0;
};

void WriteTrace(std::ostream& out, const Repro& repro,
                const ScenarioReport& report) {
  double horizon = 0.0;
  for (const StreamEvent& event : report.stream)
    horizon = std::max(horizon, event.time);
  for (const Violation& violation : report.violations)
    horizon = std::max(horizon, violation.time);

  std::map<std::uint32_t, std::string> machine_names;
  std::map<std::uint32_t, std::string> user_names;
  for (const StreamEvent& event : report.stream) {
    if (event.kind == Kind::kPlace || event.kind == Kind::kCrash ||
        event.kind == Kind::kRestart)
      machine_names.try_emplace(event.machine,
                                "machine " + std::to_string(event.machine));
    user_names.try_emplace(event.user, "user " + std::to_string(event.user));
  }

  out << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  EmitMeta(out, kMachinesPid, "machines (repro: " + Escaped(repro.substrate) +
                                  " seed " +
                                  std::to_string(repro.scenario_seed) + ")",
           machine_names);
  EmitMeta(out, kUsersPid, "users", user_names);
  EmitMeta(out, kCheckerPid, "checker", {{0, "violations"}});

  std::map<std::uint32_t, OpenTask> live;        // task id -> open span
  std::map<std::uint32_t, double> down_since;    // machine -> crash time
  std::map<std::uint32_t, double> disconnected;  // user -> disconnect time
  auto close_task = [&](const StreamEvent& event, const char* outcome) {
    const auto it = live.find(event.task);
    if (it == live.end()) return;  // defective streams are still renderable
    EmitSpan(out, kMachinesPid, it->second.machine,
             "u" + std::to_string(it->second.user) + " t" +
                 std::to_string(event.task),
             outcome, it->second.start, event.time,
             "\"user\": " + std::to_string(it->second.user) +
                 ", \"outcome\": \"" + outcome + "\"");
    live.erase(it);
  };
  for (const StreamEvent& event : report.stream) {
    switch (event.kind) {
      case Kind::kArrive:
        EmitInstant(out, kUsersPid, event.user, "arrive", "lifecycle",
                    event.time, "");
        break;
      case Kind::kPlace:
        live[event.task] = {event.time, event.user, event.machine};
        break;
      case Kind::kFinish:
        close_task(event, "finished");
        break;
      case Kind::kKill:
        close_task(event, "killed");
        EmitInstant(out, kMachinesPid, event.machine, "kill", "fault",
                    event.time, "\"task\": " + std::to_string(event.task));
        break;
      case Kind::kFail:
        close_task(event, "failed");
        EmitInstant(out, kMachinesPid, event.machine, "fail", "fault",
                    event.time, "\"task\": " + std::to_string(event.task));
        break;
      case Kind::kCrash:
        down_since[event.machine] = event.time;
        break;
      case Kind::kRestart:
        if (const auto it = down_since.find(event.machine);
            it != down_since.end()) {
          EmitSpan(out, kMachinesPid, event.machine, "DOWN", "outage",
                   it->second, event.time, "");
          down_since.erase(it);
        }
        break;
      case Kind::kDisconnect:
        disconnected[event.user] = event.time;
        break;
      case Kind::kReregister:
        if (const auto it = disconnected.find(event.user);
            it != disconnected.end()) {
          EmitSpan(out, kUsersPid, event.user, "disconnected", "outage",
                   it->second, event.time, "");
          disconnected.erase(it);
        }
        break;
    }
  }
  // A violating stream can end with spans still open (e.g. a leaked task);
  // draw them to the horizon so the leak is visible, not dropped.
  for (const auto& [task, open] : live)
    EmitSpan(out, kMachinesPid, open.machine,
             "u" + std::to_string(open.user) + " t" + std::to_string(task) +
                 " (unresolved)",
             "leaked", open.start, horizon,
             "\"user\": " + std::to_string(open.user));
  for (const auto& [machine, since] : down_since)
    EmitSpan(out, kMachinesPid, machine, "DOWN (unrestored)", "outage", since,
             horizon, "");
  for (const auto& [user, since] : disconnected)
    EmitSpan(out, kUsersPid, user, "disconnected (unrestored)", "outage",
             since, horizon, "");

  for (const Violation& violation : report.violations)
    EmitInstant(out, kCheckerPid, 0, Escaped(violation.invariant), "violation",
                violation.time,
                "\"detail\": \"" + Escaped(violation.detail) +
                    "\", \"event_index\": " +
                    std::to_string(violation.event_index));

  // Closing sentinel so every real event line could end with a comma.
  out << "  {\"ph\": \"M\", \"name\": \"process_sort_index\", \"pid\": "
      << kCheckerPid << ", \"args\": {\"sort_index\": -1}}\n]\n}\n";
}

void WriteDot(std::ostream& out, const Repro& repro,
              const ScenarioReport& report) {
  struct EdgeStats {
    long placed = 0;
    long killed = 0;
    long failed = 0;
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, EdgeStats> edges;
  std::map<std::uint32_t, OpenTask> live;
  std::map<std::uint32_t, long> crashes;  // machine -> crash count
  for (const StreamEvent& event : report.stream) {
    switch (event.kind) {
      case Kind::kPlace:
        live[event.task] = {event.time, event.user, event.machine};
        edges[{event.user, event.machine}].placed++;
        break;
      case Kind::kKill:
        if (const auto it = live.find(event.task); it != live.end()) {
          edges[{it->second.user, it->second.machine}].killed++;
          live.erase(it);
        }
        break;
      case Kind::kFail:
        if (const auto it = live.find(event.task); it != live.end()) {
          edges[{it->second.user, it->second.machine}].failed++;
          live.erase(it);
        }
        break;
      case Kind::kFinish:
        live.erase(event.task);
        break;
      case Kind::kCrash:
        crashes[event.machine]++;
        break;
      default:
        break;
    }
  }

  out << "digraph repro {\n  rankdir=LR;\n  label=\"" << repro.substrate
      << " seed " << repro.scenario_seed << " policy " << repro.policy
      << (report.ok() ? " (clean)" : " (VIOLATIONS)") << "\";\n";
  std::map<std::uint32_t, bool> machines;
  std::map<std::uint32_t, bool> users;
  for (const auto& [key, stats] : edges) {
    users[key.first] = true;
    machines[key.second] = true;
  }
  for (const auto& [machine, count] : crashes) machines[machine] = true;
  for (const auto& [user, unused] : users)
    out << "  u" << user << " [label=\"user " << user << "\"];\n";
  for (const auto& [machine, unused] : machines) {
    const long crash_count =
        crashes.count(machine) != 0 ? crashes.at(machine) : 0;
    out << "  m" << machine << " [shape=box, label=\"machine " << machine
        << (crash_count > 0
                ? "\\n" + std::to_string(crash_count) + " crash(es)\""
                  ", style=filled, fillcolor=lightyellow"
                : "\"")
        << "];\n";
  }
  for (const auto& [key, stats] : edges) {
    out << "  u" << key.first << " -> m" << key.second << " [label=\""
        << stats.placed << " placed";
    if (stats.killed > 0) out << ", " << stats.killed << " killed";
    if (stats.failed > 0) out << ", " << stats.failed << " failed";
    out << "\"";
    if (stats.killed + stats.failed > 0) out << ", color=orange";
    out << "];\n";
  }
  for (std::size_t v = 0; v < report.violations.size(); ++v) {
    const Violation& violation = report.violations[v];
    out << "  v" << v << " [shape=octagon, color=red, fontcolor=red, "
        << "label=\"" << violation.invariant << "\\nt="
        << violation.time << "\"];\n";
    if (violation.event_index < report.stream.size())
      out << "  v" << v << " -> m"
          << report.stream[violation.event_index].machine
          << " [style=dashed, color=red];\n";
  }
  out << "}\n";
}

int Main(int argc, char** argv) {
  const Flags flags(
      argc, argv,
      {{"repro", "repro file to replay (or pass it as the positional arg)"},
       {"format", "trace (Chrome/Perfetto JSON, default) or dot (graphviz)"},
       {"out", "output path (default <repro>.trace.json / <repro>.dot)"}});
  std::string repro_path = flags.GetString("repro", "");
  if (repro_path.empty() && !flags.positional().empty())
    repro_path = flags.positional().front();
  TSF_CHECK(!repro_path.empty())
      << "usage: viz_repro [--format=trace|dot] [--out=PATH] <repro file>";
  const std::string format = flags.GetString("format", "trace");
  TSF_CHECK(format == "trace" || format == "dot")
      << "unknown --format '" << format << "' (want trace|dot)";
  const std::string out_path = flags.GetString(
      "out", repro_path + (format == "trace" ? ".trace.json" : ".dot"));

  std::ifstream in(repro_path);
  TSF_CHECK(in.good()) << "cannot read " << repro_path;
  std::stringstream text;
  text << in.rdbuf();
  Repro repro;
  std::string error;
  if (!ParseRepro(text.str(), &repro, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", repro_path.c_str(), error.c_str());
    return 1;
  }
  const ScenarioReport report = ReplayReproReport(repro);

  std::ofstream out(out_path);
  TSF_CHECK(out.good()) << "cannot write " << out_path;
  if (format == "trace")
    WriteTrace(out, repro, report);
  else
    WriteDot(out, repro, report);
  std::printf(
      "%s: %zu stream events, %zu violation(s)%s -> %s\n", repro_path.c_str(),
      report.stream.size(), report.violations.size(),
      report.ok() ? " (repro no longer fails — bug fixed or rotted)" : "",
      out_path.c_str());
  for (const Violation& violation : report.violations)
    std::printf("  %s\n", ToString(violation).c_str());
  return 0;
}

}  // namespace
}  // namespace tsf::chaos

int main(int argc, char** argv) { return tsf::chaos::Main(argc, argv); }
