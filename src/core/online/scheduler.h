// The online TSF algorithm of Sec. V-D, generalized over the progress key so
// the same machinery runs every baseline in the evaluation.
//
// State: per-machine free capacity, per-user {demand, eligibility, weight,
// h, g, pending, running}. Two entry points mirror the paper's event loop:
//
//  * PlaceUserGreedy — on job arrival: if the datacenter is not full, place
//    the new tasks on machines satisfying demand and constraints. (At that
//    instant no *other* queued user can place anywhere — the scheduler is
//    work-conserving after every event — so greedy placement of the
//    newcomer is policy-correct for all policies.)
//  * ServeMachine — on task completion on machine m: offer m's freed
//    resources to the users eligible on m, in ascending key order, until no
//    pending task fits.
//
// Time never appears here; the discrete-event simulator owns the clock and
// calls these hooks.
//
// Selection is incremental: each user's progress key is `running × coeff`
// with the coefficient cached at AddUser (see core/online/ranker.h), and
// both serve loops pick the next user from a (key, id) min-heap instead of
// rescanning every candidate — O(log n) per placement. ReferenceScheduler
// (core/online/reference_scheduler.h) retains the original linear-scan
// implementation as an executable spec; the differential tests assert
// placement-for-placement identity between the two.
//
// Machine classes: the scheduler keeps its wait lists and free-capacity
// bounds per class of identical machines (core/cluster.h
// MachineClassIndex) instead of per machine. A class's wait list holds one
// 8-byte entry per waiting user: the user, its interned demand shape, and a
// bit set when the user is eligible on only part of the class. A serve
// decides Fits once per demand shape present, never reads a user whose
// shape does not fit, and stops as soon as no admitted shape fits the
// machine. A class with several members also keeps a stale-high bound on
// their free capacity, which lets placement scans skip the whole class; a
// class of one keeps no bound, so it costs what a machine costs. Placement
// decisions always test the exact per-machine free vector, so the emitted
// placement stream does not depend on how the machines are grouped.
//
// The on_place callbacks must not mutate the scheduler (no AddUser /
// AddPending / OnTaskFinish re-entry): both serve loops assume keys only
// grow and capacity only shrinks within a phase.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/eligibility.h"
#include "core/online/policy.h"
#include "core/online/ranker.h"
#include "core/resource.h"
#include "util/bitset.h"

namespace tsf {

using UserId = std::size_t;

struct OnlineUserSpec {
  ResourceVector demand;   // normalized per-task demand
  DynamicBitset eligible;  // over the scheduler's machines
  // Interned alternative to `eligible`: when set, it wins and `eligible` is
  // ignored (the simulator shares one compiled set across users carrying
  // the same constraint — see core/eligibility.h). Its class summaries must
  // come from the scheduler's class index.
  EligibilityHandle eligible_set;
  double weight = 1.0;
  double h = 0.0;  // unconstrained monopoly tasks (TSF denominator)
  double g = 0.0;  // constrained monopoly tasks (CDRF denominator)
  long pending = 0;
};

class OnlineScheduler {
 public:
  // `machine_capacity` is the normalized configuration vector per machine.
  // Every machine is its own class.
  OnlineScheduler(std::vector<ResourceVector> machine_capacity,
                  OnlinePolicy policy);

  // Machines grouped by `classes`, which must index the same machines and
  // outlive the scheduler.
  OnlineScheduler(std::vector<ResourceVector> machine_capacity,
                  OnlinePolicy policy, const MachineClassIndex& classes);

  std::size_t num_machines() const { return free_.size(); }
  std::size_t num_users() const { return users_.size(); }
  const OnlinePolicy& policy() const { return policy_; }

  // Registers a user; ids are dense and assigned in call order (which is
  // what FIFO ranks by).
  UserId AddUser(OnlineUserSpec spec);

  // Adds more queued tasks for an existing user.
  void AddPending(UserId user, long count);

  // Frees one task's resources on m. Does not trigger scheduling — call
  // ServeMachine afterwards.
  void OnTaskFinish(UserId user, MachineId machine);

  // Marks a user finished so serve loops skip it cheaply.
  void Retire(UserId user);

  // --- chaos hooks (src/chaos fault injection) ----------------------------
  // Takes a machine offline: its free capacity drops to zero so no task can
  // be placed there. The caller requeues every task running on the machine
  // *before* crashing it (OnTaskFinish + AddPending per task): the scheduler
  // tracks capacity, not placements, so it cannot do the kills itself.
  void CrashMachine(MachineId machine);
  // Brings a crashed machine back online, empty (full capacity free).
  void RestoreMachine(MachineId machine);
  bool MachineDown(MachineId machine) const { return down_[machine]; }

  // Greedy placement over every eligible machine for one user; invokes
  // on_place(machine) per task placed (resources already debited).
  void PlaceUserGreedy(UserId user,
                       const std::function<void(MachineId)>& on_place);

  // Key-ordered placement for a batch of users that became schedulable at
  // the same instant (e.g. jobs arriving at the same timestamp): repeatedly
  // serves the lowest-key batch member that still fits somewhere, so
  // simultaneous arrivals interleave instead of the first one monopolizing
  // the idle capacity. Only the listed users are considered — callers
  // invoke this when no other pending user can place (the scheduler is
  // work-conserving after every event).
  void PlaceUsersInterleaved(const std::vector<UserId>& users,
                             const std::function<void(UserId, MachineId)>& on_place);

  // Ascending-key service of machine m's free capacity; invokes
  // on_place(user, machine) per task placed.
  void ServeMachine(MachineId machine,
                    const std::function<void(UserId, MachineId)>& on_place);

  long pending(UserId user) const { return users_[user].pending; }
  long running(UserId user) const { return users_[user].running; }

  // True if any user still has queued tasks. O(1): serving a machine when
  // nothing is pending is a guaranteed no-op, so the simulator skips the
  // call entirely.
  bool HasPendingUsers() const { return total_pending_ > 0; }

  // Current progress key (lower = served first).
  double Key(UserId user) const;

  const ResourceVector& FreeCapacity(MachineId machine) const {
    return free_[machine];
  }

 private:
  struct User {
    EligibilityHandle elig;  // shared across users with equal constraints
    std::uint32_t demand_id = 0;  // interned demand shape, see demands_
    long pending = 0;
    long running = 0;
    // Cached key state: key == running * coeff for every non-FIFO policy
    // (FIFO keys are the constant user id). Updated on every running-count
    // change instead of recomputed per comparison.
    double coeff = 0.0;
    double key = 0.0;
    bool retired = false;
  };

  // One waiting user on a class's wait list.
  struct WaitEntry {
    std::uint32_t user = 0;
    std::uint32_t shape = 0;  // demand id << 1 | eligible on part of the class
  };

  // Resumable per-user scan for the interleaved loop: `next` is a machine-id
  // position into the user's eligibility bitset, and `bound_fit` memoizes
  // per-bound "no member can fit" verdicts, final for the phase because the
  // bounds cannot shrink while it runs.
  struct Cursor {
    UserId user = 0;
    std::size_t next = 0;
    std::vector<signed char> bound_fit;  // -1 unknown, 0 never fits, 1 maybe
  };

  static constexpr std::uint32_t kNoBound = UINT32_MAX;

  OnlineScheduler(std::vector<ResourceVector> machine_capacity,
                  OnlinePolicy policy, const MachineClassIndex* classes);

  const ResourceVector& Demand(const User& u) const {
    return demands_[u.demand_id];
  }

  // True and debits resources if one task of `user` fits on `machine`.
  bool TryPlace(UserId user, MachineId machine);

  // Appends `id` to the wait list of every class its eligibility touches.
  void RegisterWaiting(UserId id);

  // Dense id for a demand vector, byte-exact.
  std::uint32_t InternDemand(const ResourceVector& demand);

  // Whether demand shape `d` fits the free capacity of the machine being
  // served, decided once per serve.
  bool ShapeFits(std::uint32_t d, MachineId machine);

  // Advances `cursor` to its next placeable machine (exact fit test, bounded
  // classes pruned). Returns that machine, or SIZE_MAX when the cursor is
  // exhausted for this phase.
  std::size_t AdvanceCursor(Cursor& cursor);

  void UpdateKey(User& u) {
    if (policy_.kind != OnlinePolicy::Kind::kFifo)
      u.key = static_cast<double>(u.running) * u.coeff;
  }

  OnlinePolicy policy_;
  std::vector<ResourceVector> free_;
  std::vector<ResourceVector> capacity_;  // pristine copy, for RestoreMachine
  std::vector<bool> down_;                // crashed machines (chaos hooks)
  std::vector<User> users_;
  // Per user: 1 while it has queued tasks and is not retired. Kept apart
  // from users_ so a serve's wait-list scan reads one byte per entry.
  std::vector<char> queued_;
  // The index of the two-argument constructor; `classes_` points at it or
  // at the caller's.
  std::unique_ptr<const MachineClassIndex> owned_classes_;
  const MachineClassIndex* classes_ = nullptr;
  // Per-class wait lists of users with queued tasks, lazily compacted by
  // ServeMachine as users drain or retire; AddPending re-registers a
  // drained user that gets new tasks. A not-yet-compacted entry then yields
  // a duplicate, which is harmless: the heap orders by (key, id), so it
  // pops as stale.
  std::vector<std::vector<WaitEntry>> waiting_;
  // Per-machine slot of its class's free-capacity bound, kNoBound for a
  // class of one. A bound is >= free_[m] componentwise for every member m,
  // maintained stale-high (credits grow it via componentwise max, debits
  // leave it untouched) so a failed bound Fits proves no member fits.
  // Greedy scans that visit a whole class commit the observed max back,
  // re-tightening the bound.
  std::vector<std::uint32_t> bound_of_;
  std::vector<ResourceVector> bound_;
  std::vector<std::uint32_t> bound_members_;
  std::vector<ResourceVector> demands_;  // by demand id
  std::unordered_map<std::string, std::uint32_t> demand_ids_;
  // Per-serve fit verdicts by demand id: serve epoch << 2 | ShapeFit bits.
  // The shapes that fit now are also listed in `live_shapes_`.
  std::uint32_t serve_epoch_ = 0;
  std::vector<std::uint32_t> verdict_;
  std::vector<std::uint32_t> live_shapes_;
  // Per-scan scratch for PlaceUserGreedy by bound slot, epoch-versioned so
  // a new scan resets lazily in O(bounds touched).
  std::uint32_t scan_epoch_ = 0;
  std::vector<std::uint32_t> scan_epoch_of_;
  std::vector<signed char> scan_fit_;
  std::vector<std::uint32_t> scan_visited_;
  std::vector<ResourceVector> scan_observed_;
  // Scratch heap reused across serve phases (capacity persists).
  RankHeap heap_;
  // Sum of every user's pending count (retired users included; they only
  // reach zero pending in normal retirement anyway).
  long total_pending_ = 0;
};

}  // namespace tsf
