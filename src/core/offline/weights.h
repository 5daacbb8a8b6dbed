// Theorem-1 weight derivation and component-wise solving.
//
// Theorem 1 turns dedicated resource pools into TSF weights: give user i
// weight w_i = k_i / h_i, where k_i is the number of tasks its pool
// supports, and TSF guarantees it at least k_i tasks in the shared cluster.
// These helpers compute those weights and apply them.
//
// Sec. II-A also notes that a disconnected constraint graph can be shared
// per connected component. SolvePerComponent exploits that: it splits a
// problem along FindComponents, solves each piece independently (much
// smaller LPs), and stitches the allocations back together. For TSF/CDRF
// the result is identical to solving whole — users in different components
// never compete — which doubles as a strong cross-check in tests.
#pragma once

#include "core/offline/policies.h"
#include "core/offline/properties.h"

namespace tsf {

// w_i = k_i / h_i from explicit dedicated pools (Thm. 1). Every pool must
// support at least a fraction of a task (k_i > 0).
std::vector<double> Theorem1Weights(const CompiledProblem& problem,
                                    const DedicatedPools& pools);

// Returns a copy of `problem` with the given weights installed.
CompiledProblem WithWeights(const CompiledProblem& problem,
                            std::vector<double> weights);

// Splits along constraint-graph components, runs `solver` per component
// with each user's ORIGINAL whole-cluster denominator inputs preserved
// (h_i and g_i are global quantities — a user's task share is defined
// against the entire datacenter even when its component is smaller), and
// stitches the result.
FillingResult SolvePerComponent(const CompiledProblem& problem,
                                OfflinePolicy policy);

}  // namespace tsf
