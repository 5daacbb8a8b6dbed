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

}  // namespace

EligibilityPool::EligibilityPool(const Cluster& cluster)
    : cluster_(&cluster), classes_(nullptr) {}

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
  it->second = Compile(constraint);
  return it->second;
}

EligibilityHandle WrapEligibility(DynamicBitset machines,
                                  const MachineClassIndex& classes) {
  TSF_CHECK_EQ(machines.size(), classes.num_machines());
  auto set = std::make_shared<EligibilitySet>();
  set->machines = std::move(machines);
  set->classes = DynamicBitset(classes.num_classes());
  set->class_count.assign(classes.num_classes(), 0);
  set->machines.ForEachSet([&](std::size_t m) {
    ++set->class_count[classes.class_of(m)];
    ++set->num_eligible;
  });
  for (std::size_t c = 0; c < classes.num_classes(); ++c)
    if (set->class_count[c] > 0) set->classes.Set(c);
  return set;
}

EligibilityHandle WrapFlatEligibility(DynamicBitset machines) {
  auto set = std::make_shared<EligibilitySet>();
  set->num_eligible = machines.Count();
  set->machines = std::move(machines);
  return set;
}

EligibilityHandle EligibilityPool::Compile(const Constraint& constraint) const {
  if (classes_ == nullptr)
    return WrapFlatEligibility(cluster_->Eligibility(constraint));
  const std::size_t num_machines = classes_->num_machines();
  const std::size_t num_classes = classes_->num_classes();
  auto set = std::make_shared<EligibilitySet>();
  set->machines = DynamicBitset(num_machines);
  set->classes = DynamicBitset(num_classes);
  set->class_count.assign(num_classes, 0);

  switch (constraint.kind()) {
    case Constraint::Kind::kNone:
    case Constraint::Kind::kRequireAttributes:
      // Uniform within a class: probe one representative, admit all members.
      for (std::size_t c = 0; c < num_classes; ++c) {
        const Machine& probe = cluster_->machine(classes_->representative(c));
        if (!constraint.Allows(probe.id, probe.attributes)) continue;
        set->machines |= classes_->members(c);
        set->classes.Set(c);
        set->class_count[c] = classes_->class_size(c);
        set->num_eligible += classes_->class_size(c);
      }
      break;
    case Constraint::Kind::kWhitelist:
    case Constraint::Kind::kBlacklist: {
      // Machine-id based; may split a class. Build the exact bits from the
      // list, then derive the class summaries.
      if (constraint.kind() == Constraint::Kind::kBlacklist) {
        set->machines.SetAll();
        for (std::size_t c = 0; c < num_classes; ++c)
          set->class_count[c] = classes_->class_size(c);
        set->num_eligible = num_machines;
      }
      for (const MachineId m : constraint.machine_list()) {
        TSF_CHECK_LT(m, num_machines);
        const std::uint32_t c = classes_->class_of(m);
        if (constraint.kind() == Constraint::Kind::kWhitelist) {
          set->machines.Set(m);
          ++set->class_count[c];
          ++set->num_eligible;
        } else {
          set->machines.Reset(m);
          --set->class_count[c];
          --set->num_eligible;
        }
      }
      for (std::size_t c = 0; c < num_classes; ++c)
        if (set->class_count[c] > 0) set->classes.Set(c);
      break;
    }
  }
  return set;
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
