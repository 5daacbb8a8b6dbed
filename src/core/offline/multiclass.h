// Multi-class TSF (the extension the paper points to in Sec. VII).
//
// Tan et al. [23] generalize DRF to users whose workload mixes task
// *classes* with different demand vectors (e.g. a MapReduce job running
// map and reduce tasks in a 3:1 ratio); the paper notes "the same
// technique can also be applied to TSF". This module does exactly that:
//
//   * each user declares K classes, a demand vector per class, and a mix
//     (the fraction of its tasks belonging to each class);
//   * the user's progress is its total task count n_i with the mix
//     enforced (n_ic = mix_ic * n_i for every class c);
//   * its multi-class monopoly count H_i is the largest total it could run
//     monopolizing the whole datacenter, constraints removed, mix
//     enforced — itself a small LP, degenerating to the familiar
//     h_i = sum_m min_r C_mr / d_ir for a single class;
//   * multi-class TSF is max-min fairness over s_i = n_i / (H_i w_i),
//     computed by the same progressive-filling scheme as Algorithm 1 with
//     per-(user, class, machine) variables.
//
// With one class per user this reduces exactly to SolveTsf (tested).
#pragma once

#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/offline/progressive_filling.h"

namespace tsf {

struct MultiClassJobSpec {
  std::string name;
  double weight = 1.0;
  Constraint constraint;  // applies to every class of this user

  // One entry per class; demands in raw units, mix strictly positive and
  // summing to 1 (validated by CompileMultiClass).
  std::vector<ResourceVector> class_demand;
  std::vector<double> class_mix;
};

struct MultiClassProblem {
  Cluster cluster;
  std::vector<MultiClassJobSpec> users;
};

// Allocator-ready form (normalized demands, eligibility, monopoly counts).
struct CompiledMultiClass {
  std::size_t num_users = 0;
  std::size_t num_machines = 0;
  std::size_t num_resources = 0;
  std::vector<ResourceVector> machine_capacity;         // normalized
  std::vector<std::vector<ResourceVector>> demand;      // [user][class]
  std::vector<std::vector<double>> mix;                 // [user][class]
  std::vector<DynamicBitset> eligible;
  std::vector<double> weight;
  std::vector<double> H;  // mix-enforced unconstrained monopoly totals
};

CompiledMultiClass CompileMultiClass(const MultiClassProblem& problem);

// Per-class allocation: tasks of user i's class c on machine m.
struct MultiClassAllocation {
  std::size_t num_users = 0;
  std::vector<std::vector<std::vector<double>>> tasks;  // [user][class][machine]

  double UserTasks(UserId i) const;
  double ClassTasks(UserId i, std::size_t c) const;
};

struct MultiClassResult {
  MultiClassAllocation allocation;
  std::vector<double> shares;  // n_i / (H_i w_i)
};

// Max-min fairness over multi-class task shares (progressive filling).
MultiClassResult SolveMultiClassTsf(const CompiledMultiClass& problem);

// The FillingSpec SolveMultiClassTsf runs on (exposed for tests that drive
// FillingEngine directly).
FillingSpec MakeMultiClassFillingSpec(const CompiledMultiClass& problem);

// The mix-enforced monopoly total for one user (exposed for tests).
double MultiClassMonopolyTasks(const CompiledMultiClass& problem, UserId i);

}  // namespace tsf
