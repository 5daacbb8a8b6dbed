// Machines, jobs, and the shared cluster (Sec. II-B).
//
// Cluster owns the machine list and the datacenter-wide totals used to
// normalize capacities and demands. SharingProblem bundles a cluster with a
// set of jobs; CompiledProblem is its allocator-ready form: normalized
// vectors, eligibility bitsets (the constraint graph), and the monopoly task
// counts h_i (unconstrained) and g_i (constrained) that the share
// definitions divide by.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/constraint.h"
#include "core/resource.h"
#include "util/bitset.h"

namespace tsf {

using UserId = std::size_t;

struct Machine {
  MachineId id = 0;
  std::string name;
  ResourceVector capacity;   // raw units, e.g. <2 cores, 1024 MB>
  AttributeSet attributes;
};

// A datacenter job == a user of the sharing policy (the paper uses the terms
// interchangeably). Fields beyond the allocator inputs (num_tasks, arrival,
// runtimes) are used by the simulator and the Mesos-like prototype.
struct JobSpec {
  UserId id = 0;
  std::string name;
  ResourceVector demand;     // per-task demand, raw units
  double weight = 1.0;
  Constraint constraint;

  // Workload attributes (ignored by the offline allocators).
  long num_tasks = 0;
  double arrival_time = 0.0;
  double mean_task_runtime = 0.0;
};

class Cluster {
 public:
  Cluster() = default;
  explicit Cluster(std::vector<Machine> machines);

  // Builder-style addition; returns the machine's id.
  MachineId AddMachine(ResourceVector capacity, AttributeSet attributes = {},
                       std::string name = {});

  std::size_t num_machines() const { return machines_.size(); }
  std::size_t num_resources() const { return total_.dimension(); }
  const Machine& machine(MachineId m) const { return machines_.at(m); }
  const std::vector<Machine>& machines() const { return machines_; }

  // Datacenter-wide totals (raw units).
  const ResourceVector& total() const { return total_; }

  // capacity of machine m divided component-wise by total() — the paper's
  // normalized configuration vector C_m.
  ResourceVector NormalizedCapacity(MachineId m) const;

  // demand divided component-wise by total() — the paper's normalized demand
  // vector d_i. Resources with zero datacenter total require zero demand.
  ResourceVector NormalizedDemand(const ResourceVector& demand) const;

  // Eligibility bitset of a constraint over this cluster's machines: bit m
  // is set iff the constraint allows machine m (one row of Fig. 1's graph).
  // An attribute requirement costs O(required attributes * machines / 64)
  // (the AND of the attribute index's bitsets), a machine list O(list);
  // listed ids outside the cluster are ignored.
  DynamicBitset Eligibility(const Constraint& constraint) const;

 private:
  void RecomputeTotal();
  void IndexAttributes(const Machine& machine);

  std::vector<Machine> machines_;
  ResourceVector total_;
  // Machines carrying each attribute id. A bitset ends at its last member
  // (Eligibility reads the bits past its end as clear), so AddMachine
  // touches only the new machine's attributes. Built eagerly: Eligibility
  // is const and runs concurrently on a shared cluster.
  std::unordered_map<AttributeId, DynamicBitset> attribute_machines_;
};

// Machine equivalence classes: machines with identical (capacity, attribute
// set) are interchangeable for every constraint and every fit test, so the
// online scheduler keeps its wait lists and free-capacity bounds per class
// and expands to concrete MachineIds only at placement time. The Google
// trace has ~12k machines but only a handful of configs × attribute
// profiles, so num_classes() << num_machines() at scale; on the paper's
// i.i.d. fleet nearly every class has one member.
//
// Classes are numbered in first-seen machine-index order, so the index is a
// pure function of the machine list (deterministic across runs). The
// canonical representative of a class is its lowest-id member. The members
// are kept as one id array grouped by class, so the index costs O(machines)
// words however many classes there are.
class MachineClassIndex {
 public:
  // Builds the index for a cluster; O(machines) with hashed class lookup.
  explicit MachineClassIndex(const Cluster& cluster);

  // The index of `num_machines` distinct machines: machine m is class m.
  static MachineClassIndex Singletons(std::size_t num_machines);

  // Number of classes the index would have, without building it (trace
  // synthesis asks this to decide whether probing per class pays).
  static std::size_t CountClasses(const Cluster& cluster);

  std::size_t num_machines() const { return class_of_.size(); }
  std::size_t num_classes() const { return member_begin_.size() - 1; }

  std::uint32_t class_of(MachineId m) const {
    TSF_DCHECK(m < class_of_.size());
    return class_of_[m];
  }
  MachineId representative(std::size_t c) const { return members(c).front(); }
  std::uint32_t class_size(std::size_t c) const {
    TSF_DCHECK(c + 1 < member_begin_.size());
    return member_begin_[c + 1] - member_begin_[c];
  }
  // Members of class c in ascending id order.
  std::span<const std::uint32_t> members(std::size_t c) const {
    return {members_.data() + member_begin_[c], class_size(c)};
  }

 private:
  MachineClassIndex() = default;

  std::vector<std::uint32_t> class_of_;      // per machine
  std::vector<std::uint32_t> members_;       // grouped by class
  std::vector<std::uint32_t> member_begin_;  // per class, plus an end entry
};

struct SharingProblem {
  Cluster cluster;
  std::vector<JobSpec> jobs;
};

// Allocator-ready compilation of a SharingProblem. All quantities normalized
// to datacenter totals; all checks performed up front so policy code can
// assume a well-formed instance.
struct CompiledProblem {
  std::size_t num_users = 0;
  std::size_t num_machines = 0;
  std::size_t num_resources = 0;

  std::vector<ResourceVector> machine_capacity;  // normalized C_m
  std::vector<ResourceVector> demand;            // normalized d_i
  std::vector<DynamicBitset> eligible;           // p_i as bitsets
  std::vector<double> weight;                    // w_i

  // Monopoly task counts under divisible tasks:
  //   h[i]: constraints removed, entire datacenter (TSF's denominator);
  //   g[i]: constraints kept, entire eligible set (CDRF's denominator).
  std::vector<double> h;
  std::vector<double> g;

  // Tasks of user i that fit on machine m when i monopolizes m (divisible).
  double MonopolyTasksOn(UserId i, MachineId m) const {
    return machine_capacity[m].DivisibleTaskCount(demand[i]);
  }
};

// Validates and compiles. Requirements checked: at least one machine and one
// job, consistent resource dimensions, strictly positive weights, every job
// demands a positive amount of at least one resource, and every job can run
// on at least one machine (a job with empty eligibility has no feasible
// allocation under hard constraints).
CompiledProblem Compile(const SharingProblem& problem);

// Connected components of the bipartite constraint graph (Sec. II-A states
// disconnected components can be shared independently). Returns a component
// index per machine and per user; users/machines in different components
// never interact under any policy.
struct ConstraintComponents {
  std::size_t count = 0;
  std::vector<std::size_t> machine_component;
  std::vector<std::size_t> user_component;
};
ConstraintComponents FindComponents(const CompiledProblem& problem);

}  // namespace tsf
