#include "core/eligibility.h"

#include <utility>

#include "util/check.h"

namespace tsf {

namespace {

// Canonical constraint signature: kind byte + sorted attribute ids + sorted
// machine list. Structural equality of constraints is equality of
// signatures (both id lists are kept sorted and unique by their owners).
std::string ConstraintKey(const Constraint& constraint) {
  std::string key(1, static_cast<char>(constraint.kind()));
  for (const AttributeId id : constraint.required_attributes().ids())
    key.append(reinterpret_cast<const char*>(&id), sizeof(id));
  for (const MachineId m : constraint.machine_list())
    key.append(reinterpret_cast<const char*>(&m), sizeof(m));
  return key;
}

// The set of `machines` with its class summaries: O(machines).
std::shared_ptr<EligibilitySet> Summarize(DynamicBitset machines,
                                          const MachineClassIndex& classes) {
  TSF_CHECK_EQ(machines.size(), classes.num_machines());
  auto set = std::make_shared<EligibilitySet>();
  set->num_eligible = machines.Count();
  set->classes = DynamicBitset(classes.num_classes());
  for (std::size_t c = 0; c < classes.num_classes(); ++c) {
    std::uint32_t eligible = 0;
    for (const std::uint32_t member : classes.members(c))
      if (machines.Test(member)) ++eligible;
    if (eligible == 0) continue;
    set->classes.Set(c);
    if (eligible == classes.class_size(c)) continue;
    if (set->partial.empty())
      set->partial = DynamicBitset(classes.num_classes());
    set->partial.Set(c);
  }
  set->machines = std::move(machines);
  return set;
}

}  // namespace

EligibilityPool::EligibilityPool(const Cluster& cluster,
                                 const MachineClassIndex& classes)
    : cluster_(&cluster), classes_(&classes) {
  TSF_CHECK_EQ(cluster.num_machines(), classes.num_machines())
      << "class index built for a different cluster";
}

EligibilityHandle EligibilityPool::Intern(const Constraint& constraint) {
  const auto [it, inserted] =
      pool_.emplace(ConstraintKey(constraint), EligibilityHandle{});
  if (!inserted) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  auto set = Summarize(cluster_->Eligibility(constraint), *classes_);
  set->serial = static_cast<std::uint32_t>(misses_ - 1);
  it->second = std::move(set);
  return it->second;
}

EligibilityHandle WrapEligibility(DynamicBitset machines,
                                  const MachineClassIndex& classes) {
  return Summarize(std::move(machines), classes);
}

std::size_t EligibilityPool::EvictUnused() {
  std::size_t evicted = 0;
  // The eviction predicate is per-entry and side-effect-free: the surviving
  // pool contents and the evicted count are identical for any iteration
  // order, and nothing placement-visible observes the order.
  // NOLINT-determinism(order-independent eviction sweep)
  for (auto it = pool_.begin(); it != pool_.end();) {
    if (it->second.use_count() == 1) {
      it = pool_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  return evicted;
}

}  // namespace tsf
