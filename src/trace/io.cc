#include "trace/io.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "util/check.h"
#include "util/text.h"

namespace tsf::trace {
namespace {

std::string JoinIds(const std::vector<std::uint32_t>& ids) {
  if (ids.empty()) return "-";
  std::string out;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (k > 0) out += ",";
    out += std::to_string(ids[k]);
  }
  return out;
}

std::string JoinMachines(const std::vector<MachineId>& ids) {
  std::string out;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (k > 0) out += ",";
    out += std::to_string(ids[k]);
  }
  return out;
}

// Parses a comma-separated id list ("-" is the empty list) whose ids are at
// most `max_id`. On a malformed or out-of-range element, stores it in *bad
// and returns false.
bool SplitIds(std::string_view text, std::uint64_t max_id,
              std::vector<std::uint64_t>* ids, std::string* bad) {
  ids->clear();
  if (text == "-") return true;
  while (true) {
    const std::size_t comma = text.find(',');
    const std::string_view element = text.substr(0, comma);
    std::uint64_t id = 0;
    if (!ParseUint64(element, &id) || id > max_id) {
      *bad = std::string(element);
      return false;
    }
    ids->push_back(id);
    if (comma == std::string_view::npos) return true;
    text.remove_prefix(comma + 1);
  }
}

constexpr std::uint64_t kMaxAttributeId =
    std::numeric_limits<AttributeId>::max();
constexpr std::uint64_t kMaxMachineId = std::numeric_limits<MachineId>::max();

}  // namespace

std::string WorkloadToText(const Workload& workload) {
  std::string out = "# tsf-workload v1\n";
  const Cluster& cluster = workload.cluster;
  out += "resources " + std::to_string(cluster.num_resources()) + "\n";

  for (const Machine& machine : cluster.machines()) {
    out += "machine";
    for (std::size_t r = 0; r < machine.capacity.dimension(); ++r)
      out += " " + FormatDouble(machine.capacity[r]);
    out += " attrs " + JoinIds(machine.attributes.ids()) + "\n";
  }

  for (const SimJob& job : workload.jobs) {
    out += "job " + (job.spec.name.empty() ? "job" : job.spec.name);
    out += " arrival " + FormatDouble(job.spec.arrival_time);
    out += " weight " + FormatDouble(job.spec.weight);
    out += " demand";
    for (std::size_t r = 0; r < job.spec.demand.dimension(); ++r)
      out += " " + FormatDouble(job.spec.demand[r]);
    out += " constraint ";
    switch (job.spec.constraint.kind()) {
      case Constraint::Kind::kNone:
        out += "none";
        break;
      case Constraint::Kind::kRequireAttributes:
        out += "attrs " + JoinIds(job.spec.constraint.required_attributes().ids());
        break;
      case Constraint::Kind::kWhitelist:
        out += "whitelist " + JoinMachines(job.spec.constraint.machine_list());
        break;
      case Constraint::Kind::kBlacklist:
        out += "blacklist " + JoinMachines(job.spec.constraint.machine_list());
        break;
    }
    out += "\nruntimes";
    for (const double r : job.task_runtimes) out += " " + FormatDouble(r);
    out += "\n";
  }
  return out;
}

bool WorkloadFromText(const std::string& text, Workload* workload,
                      std::string* error) {
  TSF_CHECK(workload != nullptr && error != nullptr);
  *workload = Workload{};
  error->clear();

  std::stringstream stream(text);
  std::string line;
  std::size_t line_number = 0;
  std::size_t resources = 0;
  bool have_resources = false;
  bool expecting_runtimes = false;

  auto fail = [&](const std::string& message) {
    *error = "line " + std::to_string(line_number) + ": " + message;
    return false;
  };

  while (std::getline(stream, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::stringstream tokens(line);
    std::string keyword;
    tokens >> keyword;
    // Every number is one whole token; a line ends after its last field.
    std::string token;
    const auto next_double = [&](double* value) {
      return static_cast<bool>(tokens >> token) &&
             ParseFiniteDouble(token, value);
    };
    const auto next_ids = [&](std::uint64_t max_id, const char* what,
                              std::vector<std::uint64_t>* ids) {
      if (!(tokens >> token)) return fail(std::string("missing ") + what);
      std::string bad;
      if (!SplitIds(token, max_id, ids, &bad))
        return fail(std::string("bad ") + what + " '" + bad + "'");
      return true;
    };
    const auto at_line_end = [&] {
      return tokens >> token ? fail("unexpected '" + token + "'") : true;
    };

    if (keyword == "runtimes") {
      if (!expecting_runtimes) return fail("runtimes without preceding job");
      SimJob& job = workload->jobs.back();
      while (tokens >> token) {
        double value = 0;
        if (!ParseFiniteDouble(token, &value))
          return fail("bad task runtime '" + token + "'");
        if (value <= 0.0) return fail("non-positive task runtime");
        job.task_runtimes.push_back(value);
      }
      if (job.task_runtimes.empty()) return fail("job has no tasks");
      job.spec.num_tasks = static_cast<long>(job.task_runtimes.size());
      expecting_runtimes = false;
      continue;
    }
    if (expecting_runtimes) return fail("expected a runtimes line");

    if (keyword == "resources") {
      if (have_resources) return fail("duplicate resources line");
      std::uint64_t count = 0;
      if (!(tokens >> token) || !ParseUint64(token, &count) || count == 0)
        return fail("bad resource count");
      if (!at_line_end()) return false;
      resources = static_cast<std::size_t>(count);
      have_resources = true;
      continue;
    }

    if (keyword == "machine") {
      if (!have_resources) return fail("machine before resources line");
      std::vector<double> capacity;
      for (std::size_t r = 0; r < resources; ++r) {
        double c = 0;
        if (!next_double(&c) || c < 0) return fail("bad machine capacity");
        capacity.push_back(c);
      }
      if (!(tokens >> token) || token != "attrs")
        return fail("expected 'attrs <ids|->'");
      std::vector<std::uint64_t> ids;
      if (!next_ids(kMaxAttributeId, "attribute id", &ids) || !at_line_end())
        return false;
      AttributeSet attributes;
      for (const auto id : ids)
        attributes.Add(static_cast<AttributeId>(id));
      workload->cluster.AddMachine(ResourceVector(std::move(capacity)),
                                   std::move(attributes));
      continue;
    }

    if (keyword == "job") {
      if (!have_resources) return fail("job before resources line");
      SimJob job;
      job.spec.id = workload->jobs.size();
      if (!(tokens >> job.spec.name)) return fail("missing job name");
      // arrival <t> weight <w> demand <d...> constraint <...>
      if (!(tokens >> token) || token != "arrival") return fail("expected 'arrival'");
      if (!next_double(&job.spec.arrival_time) || job.spec.arrival_time < 0)
        return fail("bad arrival time");
      if (!(tokens >> token) || token != "weight") return fail("expected 'weight'");
      if (!next_double(&job.spec.weight) || job.spec.weight <= 0)
        return fail("bad weight");
      if (!(tokens >> token) || token != "demand") return fail("expected 'demand'");
      std::vector<double> demand;
      for (std::size_t r = 0; r < resources; ++r) {
        double d = 0;
        if (!next_double(&d) || d < 0) return fail("bad demand");
        demand.push_back(d);
      }
      job.spec.demand = ResourceVector(std::move(demand));
      if (!(tokens >> token) || token != "constraint")
        return fail("expected 'constraint'");
      std::string kind;
      if (!(tokens >> kind)) return fail("missing constraint kind");
      if (kind == "none") {
        job.spec.constraint = Constraint::None();
      } else {
        const bool attrs = kind == "attrs";
        if (!attrs && kind != "whitelist" && kind != "blacklist")
          return fail("unknown constraint kind '" + kind + "'");
        std::vector<std::uint64_t> ids;
        if (!next_ids(attrs ? kMaxAttributeId : kMaxMachineId,
                      attrs ? "attribute id" : "machine id", &ids))
          return false;
        if (attrs) {
          AttributeSet required;
          for (const auto id : ids) required.Add(static_cast<AttributeId>(id));
          job.spec.constraint = Constraint::RequireAttributes(std::move(required));
        } else {
          std::vector<MachineId> machines(ids.begin(), ids.end());
          job.spec.constraint = kind == "whitelist"
                                    ? Constraint::Whitelist(std::move(machines))
                                    : Constraint::Blacklist(std::move(machines));
        }
      }
      if (!at_line_end()) return false;
      workload->jobs.push_back(std::move(job));
      expecting_runtimes = true;
      continue;
    }

    return fail("unknown keyword '" + keyword + "'");
  }

  if (expecting_runtimes) return fail("file ends before runtimes line");
  if (!have_resources) {
    *error = "missing resources line";
    return false;
  }
  if (workload->cluster.num_machines() == 0) {
    *error = "no machines";
    return false;
  }
  // Jobs must arrive in order for the simulator.
  std::sort(workload->jobs.begin(), workload->jobs.end(),
            [](const SimJob& a, const SimJob& b) {
              return a.spec.arrival_time < b.spec.arrival_time;
            });
  for (std::size_t j = 0; j < workload->jobs.size(); ++j)
    workload->jobs[j].spec.id = j;
  return true;
}

bool SaveWorkload(const Workload& workload, const std::string& path,
                  std::string* error) {
  TSF_CHECK(error != nullptr);
  std::ofstream file(path);
  if (!file) {
    *error = "cannot open " + path + " for writing";
    return false;
  }
  file << WorkloadToText(workload);
  file.flush();
  if (!file) {
    *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

bool LoadWorkload(const std::string& path, Workload* workload,
                  std::string* error) {
  TSF_CHECK(error != nullptr);
  std::ifstream file(path);
  if (!file) {
    *error = "cannot open " + path;
    return false;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  return WorkloadFromText(buffer.str(), workload, error);
}

}  // namespace tsf::trace
