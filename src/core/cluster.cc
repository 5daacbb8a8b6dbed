#include "core/cluster.h"

#include <cstring>
#include <numeric>
#include <string>
#include <unordered_map>

#include "util/check.h"

namespace tsf {

namespace {

// Byte-exact class key: raw capacity doubles + sorted attribute ids. Two
// machines share a class iff their keys are equal (no tolerance — equal
// means interchangeable for every fit test and constraint probe).
std::string ClassKey(const Machine& machine) {
  std::string key;
  key.reserve(machine.capacity.dimension() * sizeof(double) +
              machine.attributes.size() * sizeof(AttributeId));
  for (std::size_t r = 0; r < machine.capacity.dimension(); ++r) {
    const double v = machine.capacity[r];
    key.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  for (const AttributeId id : machine.attributes.ids())
    key.append(reinterpret_cast<const char*>(&id), sizeof(id));
  return key;
}

}  // namespace

std::size_t MachineClassIndex::CountClasses(const Cluster& cluster) {
  std::unordered_map<std::string, std::uint32_t> class_by_key;
  for (const Machine& machine : cluster.machines())
    class_by_key.emplace(ClassKey(machine),
                         static_cast<std::uint32_t>(class_by_key.size()));
  return class_by_key.size();
}

MachineClassIndex::MachineClassIndex(const Cluster& cluster) {
  const std::size_t n = cluster.num_machines();
  TSF_CHECK_GT(n, 0u) << "class index of an empty cluster";
  TSF_CHECK_LT(n, std::size_t{UINT32_MAX});
  class_of_.resize(n);
  std::unordered_map<std::string, std::uint32_t> class_by_key;
  std::vector<std::uint32_t> class_size;
  for (MachineId m = 0; m < n; ++m) {
    const auto [it, inserted] = class_by_key.emplace(
        ClassKey(cluster.machine(m)),
        static_cast<std::uint32_t>(class_size.size()));
    if (inserted) class_size.push_back(0);
    class_of_[m] = it->second;
    ++class_size[it->second];
  }
  // Counting sort by class; ascending machine order within each class.
  member_begin_.assign(class_size.size() + 1, 0);
  for (std::size_t c = 0; c < class_size.size(); ++c)
    member_begin_[c + 1] = member_begin_[c] + class_size[c];
  members_.resize(n);
  std::vector<std::uint32_t> next(member_begin_.begin(),
                                  member_begin_.end() - 1);
  for (MachineId m = 0; m < n; ++m)
    members_[next[class_of_[m]]++] = static_cast<std::uint32_t>(m);
}

MachineClassIndex MachineClassIndex::Singletons(std::size_t num_machines) {
  TSF_CHECK_GT(num_machines, 0u) << "class index of an empty cluster";
  TSF_CHECK_LT(num_machines, std::size_t{UINT32_MAX});
  MachineClassIndex index;
  index.class_of_.resize(num_machines);
  std::iota(index.class_of_.begin(), index.class_of_.end(), 0u);
  index.members_ = index.class_of_;
  index.member_begin_.resize(num_machines + 1);
  std::iota(index.member_begin_.begin(), index.member_begin_.end(), 0u);
  return index;
}

Cluster::Cluster(std::vector<Machine> machines) : machines_(std::move(machines)) {
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    machines_[m].id = m;
    TSF_CHECK_EQ(machines_[m].capacity.dimension(),
                 machines_[0].capacity.dimension())
        << "all machines must report the same resource types";
    IndexAttributes(machines_[m]);
  }
  RecomputeTotal();
}

MachineId Cluster::AddMachine(ResourceVector capacity, AttributeSet attributes,
                              std::string name) {
  if (!machines_.empty())
    TSF_CHECK_EQ(capacity.dimension(), machines_[0].capacity.dimension());
  Machine machine;
  machine.id = machines_.size();
  machine.name = name.empty() ? "m" + std::to_string(machine.id) : std::move(name);
  machine.capacity = std::move(capacity);
  machine.attributes = std::move(attributes);
  IndexAttributes(machine);
  machines_.push_back(std::move(machine));
  // Incremental total: appending accumulates in machine order, the exact
  // addition sequence RecomputeTotal would produce — bitwise-identical
  // normalization, without the O(machines^2) rescan that dominated
  // 100k-machine fleet construction.
  if (machines_.size() == 1) {
    total_ = machines_.back().capacity;
  } else {
    total_ += machines_.back().capacity;
  }
  return machines_.back().id;
}

void Cluster::IndexAttributes(const Machine& machine) {
  for (const AttributeId id : machine.attributes.ids()) {
    DynamicBitset& members = attribute_machines_[id];
    members.Resize(machine.id + 1);
    members.Set(machine.id);
  }
}

void Cluster::RecomputeTotal() {
  if (machines_.empty()) {
    total_ = ResourceVector{};
    return;
  }
  total_ = ResourceVector(machines_[0].capacity.dimension());
  for (const Machine& machine : machines_) total_ += machine.capacity;
}

ResourceVector Cluster::NormalizedCapacity(MachineId m) const {
  const ResourceVector& capacity = machine(m).capacity;
  ResourceVector normalized(capacity.dimension());
  for (std::size_t r = 0; r < capacity.dimension(); ++r)
    normalized[r] = total_[r] > 0.0 ? capacity[r] / total_[r] : 0.0;
  return normalized;
}

ResourceVector Cluster::NormalizedDemand(const ResourceVector& demand) const {
  TSF_CHECK_EQ(demand.dimension(), total_.dimension());
  ResourceVector normalized(demand.dimension());
  for (std::size_t r = 0; r < demand.dimension(); ++r) {
    if (total_[r] > 0.0) {
      normalized[r] = demand[r] / total_[r];
    } else {
      TSF_CHECK(demand[r] == 0.0)
          << "demand for resource " << r << " which no machine provides";
    }
  }
  return normalized;
}

DynamicBitset Cluster::Eligibility(const Constraint& constraint) const {
  DynamicBitset bits(machines_.size());
  switch (constraint.kind()) {
    case Constraint::Kind::kNone:
      bits.SetAll();
      break;
    case Constraint::Kind::kRequireAttributes:
      // An empty requirement allows every machine; an id no machine
      // carries allows none.
      bits.SetAll();
      for (const AttributeId id : constraint.required_attributes().ids()) {
        const auto it = attribute_machines_.find(id);
        if (it == attribute_machines_.end()) {
          bits.ResetAll();
          break;
        }
        bits.AndPrefix(it->second);
      }
      break;
    case Constraint::Kind::kWhitelist:
    case Constraint::Kind::kBlacklist: {
      const bool whitelist = constraint.kind() == Constraint::Kind::kWhitelist;
      if (!whitelist) bits.SetAll();
      // The list is sorted, so the ids past the cluster come last.
      for (const MachineId m : constraint.machine_list()) {
        if (m >= bits.size()) break;
        bits.Assign(m, whitelist);
      }
      break;
    }
  }
  return bits;
}

CompiledProblem Compile(const SharingProblem& problem) {
  const Cluster& cluster = problem.cluster;
  TSF_CHECK_GT(cluster.num_machines(), 0u) << "empty cluster";
  TSF_CHECK(!problem.jobs.empty()) << "no jobs";

  CompiledProblem compiled;
  compiled.num_users = problem.jobs.size();
  compiled.num_machines = cluster.num_machines();
  compiled.num_resources = cluster.num_resources();

  compiled.machine_capacity.reserve(compiled.num_machines);
  for (MachineId m = 0; m < compiled.num_machines; ++m)
    compiled.machine_capacity.push_back(cluster.NormalizedCapacity(m));

  compiled.demand.reserve(compiled.num_users);
  compiled.eligible.reserve(compiled.num_users);
  compiled.weight.reserve(compiled.num_users);
  for (const JobSpec& job : problem.jobs) {
    TSF_CHECK_GT(job.weight, 0.0) << "job " << job.name << ": weight must be positive";
    ResourceVector demand = cluster.NormalizedDemand(job.demand);
    TSF_CHECK(!demand.IsZero())
        << "job " << job.name << ": demand must be positive in some resource";
    DynamicBitset eligible = cluster.Eligibility(job.constraint);
    TSF_CHECK(eligible.Any())
        << "job " << job.name << ": no machine satisfies its constraints";
    compiled.demand.push_back(std::move(demand));
    compiled.eligible.push_back(std::move(eligible));
    compiled.weight.push_back(job.weight);
  }

  compiled.h.assign(compiled.num_users, 0.0);
  compiled.g.assign(compiled.num_users, 0.0);
  for (UserId i = 0; i < compiled.num_users; ++i) {
    for (MachineId m = 0; m < compiled.num_machines; ++m) {
      const double tasks = compiled.MonopolyTasksOn(i, m);
      compiled.h[i] += tasks;
      if (compiled.eligible[i].Test(m)) compiled.g[i] += tasks;
    }
    TSF_CHECK_GT(compiled.h[i], 0.0);
    TSF_CHECK_GT(compiled.g[i], 0.0)
        << "job " << problem.jobs[i].name
        << ": cannot run a single task on any eligible machine";
  }
  return compiled;
}

ConstraintComponents FindComponents(const CompiledProblem& problem) {
  ConstraintComponents components;
  components.machine_component.assign(problem.num_machines, SIZE_MAX);
  components.user_component.assign(problem.num_users, SIZE_MAX);

  // Union-find over machines; each user's eligible set is one hyper-edge.
  std::vector<std::size_t> parent(problem.num_machines);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  for (UserId i = 0; i < problem.num_users; ++i) {
    const std::size_t first = problem.eligible[i].FindFirst();
    problem.eligible[i].ForEachSet([&](std::size_t m) {
      parent[find(m)] = find(first);
    });
  }

  // Densify component ids.
  std::vector<std::size_t> dense(problem.num_machines, SIZE_MAX);
  for (MachineId m = 0; m < problem.num_machines; ++m) {
    const std::size_t root = find(m);
    if (dense[root] == SIZE_MAX) dense[root] = components.count++;
    components.machine_component[m] = dense[root];
  }
  for (UserId i = 0; i < problem.num_users; ++i) {
    components.user_component[i] =
        components.machine_component[problem.eligible[i].FindFirst()];
  }
  return components;
}

}  // namespace tsf
