// Offline sharing policies (the paper's contribution and every baseline it
// analyzes in Secs. IV–V), all under divisible tasks.
//
// Except for per-machine DRF — which by definition runs DRF on each machine
// in isolation — every policy is an instantiation of progressive filling
// with a policy-specific share denominator; see progressive_filling.h.
#pragma once

#include <string>
#include <vector>

#include "core/offline/progressive_filling.h"

namespace tsf {

enum class OfflinePolicy {
  kTsf,            // Task Share Fairness (this paper)
  kCdrf,           // constrained Containerized DRF [8]
  kDrfh,           // DRF in heterogeneous systems [30]
  kPerMachineDrf,  // DRF applied to each machine separately
  kCmmf,           // Constrained Max-Min Fairness / Choosy [11], one resource
};

std::string ToString(OfflinePolicy policy);

// Task Share Fairness: max-min over s_i = n_i / (h_i w_i), h_i the number of
// tasks user i could run monopolizing the datacenter with constraints
// removed (Sec. V-A).
FillingResult SolveTsf(const CompiledProblem& problem);

// Constrained CDRF: max-min over the "work slowdown" n_i / (g_i w_i), g_i
// the constrained monopoly task count (Sec. IV-B3).
FillingResult SolveCdrf(const CompiledProblem& problem);

// DRFH: max-min over the global dominant share, n_i * max_r d_ir / w_i
// (Sec. IV-B2).
FillingResult SolveDrfh(const CompiledProblem& problem);

// CMMF w.r.t. one resource: max-min over n_i * d_ir / w_i among users that
// demand resource r (Sec. IV-A; Choosy). Requires d_ir > 0 for every user.
FillingResult SolveCmmf(const CompiledProblem& problem, std::size_t resource);

// Per-machine DRF: DRF run independently on every machine over the users
// eligible there; a user's tasks are the sum of its per-machine wins
// (Sec. IV-B1). Dominant share on machine m is relative to m's capacity.
FillingResult SolvePerMachineDrf(const CompiledProblem& problem);

// Dispatch by enum (CMMF uses `resource`).
FillingResult SolveOffline(OfflinePolicy policy, const CompiledProblem& problem,
                           std::size_t resource = 0);

// The per-policy share denominators, exposed for property checkers that
// re-run filling with manipulated inputs.
std::vector<double> TsfDenominator(const CompiledProblem& problem);
std::vector<double> CdrfDenominator(const CompiledProblem& problem);
std::vector<double> DrfhDenominator(const CompiledProblem& problem);
std::vector<double> CmmfDenominator(const CompiledProblem& problem,
                                    std::size_t resource);

}  // namespace tsf
