// Hash-consed, refcounted eligibility sets over machine equivalence classes.
//
// Many jobs carry the same placement constraint (the Google mix draws from a
// small pool of attribute combos), and on a class-collapsed cluster one
// constraint's eligibility is decided per *class*, not per machine. This
// module interns the compiled form: one EligibilitySet per distinct
// constraint, shared across every job that carries it (std::shared_ptr is
// the refcount), with both the exact per-machine bitset (placement streams
// must stay bit-identical to the flat path) and the class-level summaries
// (per-class eligible counts, the class bitset) that let the scheduler and
// the DES run O(classes) sweeps instead of O(machines).
//
// Attribute constraints are uniform within a class (equal attribute sets),
// so Intern probes one canonical representative per class. Whitelists and
// blacklists name concrete machines and may split a class: their exact
// machine bits are built from the list and the class counts derived, so a
// partially-eligible class reports 0 < class_count < class_size.
//
// A pool built without a class index interns for flat owners: its sets
// carry only the machine bits, compiled by Cluster::Eligibility.
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
  DynamicBitset machines;  // exact per-machine eligibility (bit-identity)
  DynamicBitset classes;   // classes with at least one eligible machine
  std::vector<std::uint32_t> class_count;  // eligible machines per class
  std::size_t num_eligible = 0;            // machines.Count()

  // True iff machine m is eligible.
  bool EligibleOn(MachineId m) const { return machines.Test(m); }
  // True iff every member of class c is eligible (the tightening commits of
  // the scheduler's class upper bounds require full coverage).
  bool ClassFull(std::size_t c, const MachineClassIndex& classes_index) const {
    return class_count[c] == classes_index.class_size(c);
  }
};

// Shared, immutable handle. Owners (jobs, scheduler users) hold the
// refcount; EvictUnused drops pool entries nobody references any more.
using EligibilityHandle = std::shared_ptr<const EligibilitySet>;

// Builds a non-interned set from an ad-hoc machine bitset, deriving the
// class summaries from `classes` (collapsed-mode owners with a mask that
// did not come from a Constraint).
EligibilityHandle WrapEligibility(DynamicBitset machines,
                                  const MachineClassIndex& classes);

// Machines-only wrap, no class summaries (flat-mode owners; the class
// fields stay empty and must not be consulted).
EligibilityHandle WrapFlatEligibility(DynamicBitset machines);

class EligibilityPool {
 public:
  // Flat mode (sets without class summaries). The cluster must outlive the
  // pool.
  explicit EligibilityPool(const Cluster& cluster);
  // Collapsed mode. Both referents must outlive the pool.
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
  EligibilityHandle Compile(const Constraint& constraint) const;

  const Cluster* cluster_;
  const MachineClassIndex* classes_;  // null in flat mode
  std::unordered_map<std::string, EligibilityHandle> pool_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace tsf
