// Hash-consed, refcounted eligibility sets over machine equivalence classes.
//
// Many jobs carry the same placement constraint (the Google mix draws from a
// small pool of attribute combos), so this module interns the compiled form:
// one EligibilitySet per distinct constraint, shared across every job that
// carries it (std::shared_ptr is the refcount). A set holds the exact
// per-machine bitset, which Cluster::Eligibility compiles (listed ids past
// the cluster are ignored), and the class summaries the online scheduler
// registers its wait lists by: the classes with an eligible member, and
// among them the classes only partly covered. Attribute constraints cover
// whole classes (members share their attribute set); white- and blacklists
// name concrete machines and may split one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cluster.h"
#include "core/constraint.h"
#include "util/bitset.h"

namespace tsf {

struct EligibilitySet {
  DynamicBitset machines;  // exact per-machine eligibility
  DynamicBitset classes;   // classes with at least one eligible member
  // Classes with an eligible and an ineligible member; empty (size 0) when
  // no class is split, as for every attribute constraint.
  DynamicBitset partial;
  std::size_t num_eligible = 0;  // machines.Count()
  // Position in its pool's compile order (0 for the first set compiled), a
  // dense key for callers' per-set memos; 0 for a wrapped set.
  std::uint32_t serial = 0;

  // True iff machine m is eligible.
  bool EligibleOn(MachineId m) const { return machines.Test(m); }
  // True iff class c has an eligible and an ineligible member.
  bool PartlyCovers(std::size_t c) const {
    return !partial.empty() && partial.Test(c);
  }
  // True iff every member of class c is eligible.
  bool ClassFull(std::size_t c) const {
    return classes.Test(c) && !PartlyCovers(c);
  }
};

// Shared, immutable handle. Owners (jobs, scheduler users) hold the
// refcount; EvictUnused drops pool entries nobody references any more.
using EligibilityHandle = std::shared_ptr<const EligibilitySet>;

// Builds a non-interned set from an ad-hoc machine bitset, deriving the
// class summaries from `classes` in O(machines).
EligibilityHandle WrapEligibility(DynamicBitset machines,
                                  const MachineClassIndex& classes);

class EligibilityPool {
 public:
  // Both referents must outlive the pool.
  EligibilityPool(const Cluster& cluster, const MachineClassIndex& classes);

  // Returns the interned set for `constraint`, compiling it on first sight.
  // Structurally equal constraints (same kind, attributes, machine list)
  // return the *same* handle, whoever asked first.
  EligibilityHandle Intern(const Constraint& constraint);

  std::size_t size() const { return pool_.size(); }
  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }

  // Drops entries whose only reference is the pool's own; returns how many
  // were evicted.
  std::size_t EvictUnused();

 private:
  const Cluster* cluster_;
  const MachineClassIndex* classes_;
  std::unordered_map<std::string, EligibilityHandle> pool_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace tsf
