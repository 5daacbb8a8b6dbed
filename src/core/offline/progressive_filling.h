// Offline progressive filling (Algorithm 1 of the paper).
//
// The engine is generic over the *share denominator*: a policy defines the
// share of user i as  s_i = n_i / denominator_i  (n_i = total tasks), and
// progressive filling computes the max-min-fair allocation with respect to
// those shares under divisible tasks, machine capacities, and placement
// constraints. Instantiations:
//
//   TSF   : denominator_i = h_i * w_i   (unconstrained monopoly tasks)
//   CDRF  : denominator_i = g_i * w_i   (constrained monopoly tasks)
//   DRFH  : denominator_i = w_i / max_r d_ir          (dominant share)
//   CMMF_r: denominator_i = w_i / d_ir                (single resource r)
//
// Each round solves one LP to raise every active user's share equally to its
// maximum, then one LP per active user to decide who has saturated (the
// FREEZE step); saturated users' shares are floored at their round's level
// in later rounds. This mirrors Algorithm 1 exactly.
//
// All round and probe LPs of one run share a single warm-started revised
// simplex state (see core/offline/filling_engine.h): the constraint matrix
// is built once, a freeze keeps the basis, and every FREEZE probe branches
// off the solved round LP by an objective change.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/allocation.h"
#include "core/cluster.h"
#include "core/offline/filling_engine.h"

namespace tsf {

struct FillingResult {
  Allocation allocation;

  // s_i under the policy's own share definition, at termination.
  std::vector<double> shares;

  // Round (1-based) in which each user became inactive.
  std::vector<std::size_t> freeze_round;

  // Share level reached by each round, in order (the water-filling levels).
  std::vector<double> round_levels;
};

// Task-variable layout shared by every LP of a filling run: one variable per
// constraint-graph edge (user, eligible machine); the engine appends the
// share columns. Built once per problem; reusable across filling runs and
// property probes over the same CompiledProblem.
struct EdgeLayout {
  std::vector<std::pair<UserId, MachineId>> edges;
  std::vector<std::vector<std::size_t>> user_edges;     // per user
  std::vector<std::vector<std::size_t>> machine_edges;  // per machine

  explicit EdgeLayout(const CompiledProblem& problem);
};

// Compiles the round-LP structure for a problem/denominator pair into the
// engine's policy-agnostic form: one coupling row per user (total tasks >=
// denominator_i * u_i) plus the per-(machine, resource) capacity rows.
// Exposed for benchmarks and tests that drive FillingEngine directly.
FillingSpec MakeFillingSpec(const CompiledProblem& problem,
                            const EdgeLayout& layout,
                            const std::vector<double>& denominator);

// Runs Algorithm 1. `denominator[i]` must be strictly positive. The returned
// allocation is feasible (capacity + eligibility) and max-min fair w.r.t.
// n_i / denominator_i.
FillingResult ProgressiveFilling(const CompiledProblem& problem,
                                 const std::vector<double>& denominator);

// Maximizes user j's share n_j / denominator_j while every other user i is
// guaranteed at least `floor_tasks[i]` tasks (placements may reshuffle).
// Exposed for property checkers (Pareto-optimality and envy probes).
double MaxShareWithFloors(const CompiledProblem& problem,
                          const std::vector<double>& denominator, UserId j,
                          const std::vector<double>& floor_tasks);

// Layout-reusing overload: callers probing many users against the same
// problem build the EdgeLayout once instead of per call.
double MaxShareWithFloors(const CompiledProblem& problem,
                          const EdgeLayout& layout,
                          const std::vector<double>& denominator, UserId j,
                          const std::vector<double>& floor_tasks);

}  // namespace tsf
