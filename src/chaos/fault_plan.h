// Fault plans: the seed-deterministic event programs of the chaos harness.
//
// A FaultPlan is a time-sorted list of fault events against machines
// (crash/restart/task failure) and — in the Mesos substrate — offers and
// frameworks (drop/rescind/decline-timeout, disconnect/re-register). Plans
// are generated randomly (RandomFaultPlan), validated for well-formedness
// (ValidateFaultPlan: every outage is eventually lifted, so a faulted run
// still completes), serialized into the text format that repro files embed,
// and compiled down to the substrate-native fault structs consumed by
// sim/des.h and mesos/mesos.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mesos/mesos.h"
#include "sim/des.h"

namespace tsf::chaos {

enum class FaultKind {
  // Machine faults, shared by both substrates.
  kMachineCrash,
  kMachineRestart,
  kTaskFailure,
  // Offer/framework faults, Mesos substrate only.
  kOfferDrop,
  kOfferRescind,
  kDeclineTimeout,
  kFrameworkDisconnect,
  kFrameworkReregister,
};

// Stable token used by the plan/repro text format ("crash", "offer_drop"...).
std::string ToString(FaultKind kind);
// Inverse of ToString; false on an unknown token.
bool FaultKindFromString(const std::string& token, FaultKind* kind);

// True for the machine-targeted kinds shared by both substrates
// (crash/restart/task-failure); false for the Mesos-only framework kinds.
bool IsMachineFault(FaultKind kind);

struct FaultSpec {
  double time = 0.0;
  FaultKind kind = FaultKind::kMachineCrash;
  std::size_t target = 0;  // machine/slave index, or framework index
  double param = 0.0;      // kOfferDrop: offer count; kDeclineTimeout: window

  bool operator==(const FaultSpec&) const = default;
};

struct FaultPlan {
  std::vector<FaultSpec> events;  // sorted by time

  bool operator==(const FaultPlan&) const = default;
};

// Generator knobs for RandomFaultPlan.
struct FaultPlanShape {
  std::size_t num_machines = 1;
  // 0 disables the Mesos-only fault kinds (DES plans).
  std::size_t num_frameworks = 0;
  // Faults land in [earliest, horizon); outage windows may end later.
  double earliest = 0.0;
  double horizon = 60.0;
  // Upper bound on generated atoms (a crash+restart pair is one atom).
  std::size_t max_atoms = 8;
  // Mean crash-to-restart (and disconnect-to-reregister) gap.
  double mean_outage = 8.0;
};

// Seed-deterministic random plan. Guarantees well-formedness: outage windows
// of one target never overlap and every crash/disconnect is paired with its
// restart/re-register. Never crashes ALL machines at once (a plan that
// stops the whole cluster stalls arrivals but proves nothing extra).
FaultPlan RandomFaultPlan(const FaultPlanShape& shape, std::uint64_t seed);

// Empty string if the plan is well-formed against the given cluster sizes;
// otherwise a one-line description of the first defect. Checks: sorted
// times, targets in range, strict crash/restart (and
// disconnect/re-register) alternation per target with every outage lifted,
// positive decline-timeout windows, and no Mesos-only kinds when
// num_frameworks == 0.
std::string ValidateFaultPlan(const FaultPlan& plan, std::size_t num_machines,
                              std::size_t num_frameworks);

// One event per line: "fault <kind> t=<time> target=<n> param=<p>".
std::string SerializeFaultPlan(const FaultPlan& plan);
// Parses the SerializeFaultPlan format. Ignores blank lines and lines not
// starting with "fault", so a repro file parses as its own plan. Returns
// false and sets *error to "line <n>: <defect>" on a malformed fault line:
// a missing or extra field, an unknown kind, or a number with trailing junk,
// out of range or not finite.
bool ParseFaultPlan(const std::string& text, FaultPlan* plan,
                    std::string* error);

// Substrate compilers. CompileForDes TSF_CHECK-fails on Mesos-only kinds.
std::vector<SimFault> CompileForDes(const FaultPlan& plan);
std::vector<mesos::Fault> CompileForMesos(const FaultPlan& plan);

}  // namespace tsf::chaos
