#include "core/online/scheduler.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "telemetry/telemetry.h"
#include "util/check.h"

namespace tsf {

OnlineScheduler::OnlineScheduler(std::vector<ResourceVector> machine_capacity,
                                 OnlinePolicy policy)
    : OnlineScheduler(std::move(machine_capacity), std::move(policy), nullptr) {}

OnlineScheduler::OnlineScheduler(std::vector<ResourceVector> machine_capacity,
                                 OnlinePolicy policy,
                                 const MachineClassIndex& classes)
    : OnlineScheduler(std::move(machine_capacity), std::move(policy),
                      &classes) {}

OnlineScheduler::OnlineScheduler(std::vector<ResourceVector> machine_capacity,
                                 OnlinePolicy policy,
                                 const MachineClassIndex* classes)
    : policy_(std::move(policy)),
      free_(std::move(machine_capacity)),
      capacity_(free_),
      down_(free_.size(), false),
      owned_classes_(classes != nullptr
                         ? nullptr
                         : std::make_unique<const MachineClassIndex>(
                               MachineClassIndex::Singletons(free_.size()))),
      classes_(classes != nullptr ? classes : owned_classes_.get()) {
  TSF_CHECK(!free_.empty());
  TSF_CHECK_EQ(classes_->num_machines(), free_.size())
      << "class index built for a different machine set";
  const std::size_t num_classes = classes_->num_classes();
  waiting_.resize(num_classes);
  bound_of_.assign(free_.size(), kNoBound);
  for (std::size_t c = 0; c < num_classes; ++c) {
    if (classes_->class_size(c) == 1) continue;
    const auto slot = static_cast<std::uint32_t>(bound_.size());
    // All members share one capacity vector; the representative's pristine
    // capacity is a valid upper bound on every member's free capacity.
    bound_.push_back(capacity_[classes_->representative(c)]);
    bound_members_.push_back(classes_->class_size(c));
    for (const std::uint32_t m : classes_->members(c)) bound_of_[m] = slot;
  }
  scan_epoch_of_.assign(bound_.size(), 0);
  scan_fit_.assign(bound_.size(), 0);
  scan_visited_.assign(bound_.size(), 0);
  scan_observed_.assign(bound_.size(), ResourceVector());
}

std::uint32_t OnlineScheduler::InternDemand(const ResourceVector& demand) {
  std::string key(reinterpret_cast<const char*>(demand.values().data()),
                  demand.values().size() * sizeof(double));
  const auto [it, inserted] =
      demand_ids_.emplace(std::move(key),
                          static_cast<std::uint32_t>(demands_.size()));
  if (inserted) {
    demands_.push_back(demand);
    verdict_.push_back(0);
  }
  return it->second;
}

UserId OnlineScheduler::AddUser(OnlineUserSpec spec) {
  // An all-zero demand would "fit" even a crashed (zero-capacity) machine
  // and has an infinite monopoly count; reject it at the boundary.
  TSF_CHECK_GT(spec.demand.MaxComponent(), 0.0) << "all-zero task demand";
  TSF_CHECK_GT(spec.weight, 0.0);
  TSF_CHECK_GT(spec.h, 0.0);
  TSF_CHECK_GT(spec.g, 0.0);

  const UserId id = users_.size();
  TSF_CHECK_LT(id, std::size_t{UINT32_MAX})
      << "wait-list entries hold 32-bit ids";
  User user;
  user.elig = spec.eligible_set != nullptr
                  ? std::move(spec.eligible_set)
                  : WrapEligibility(std::move(spec.eligible), *classes_);
  TSF_CHECK_EQ(user.elig->machines.size(), free_.size());
  TSF_CHECK(user.elig->machines.Any());
  TSF_CHECK_EQ(user.elig->classes.size(), classes_->num_classes())
      << "eligibility set compiled for a different class index";
  user.demand_id = InternDemand(spec.demand);
  user.pending = spec.pending;
  total_pending_ += spec.pending;
  user.coeff =
      ShareCoefficient(policy_, spec.demand, spec.weight, spec.h, spec.g);
  user.key = policy_.kind == OnlinePolicy::Kind::kFifo
                 ? static_cast<double>(id)  // arrival order, never changes
                 : 0.0;
  users_.push_back(std::move(user));
  queued_.push_back(users_[id].pending > 0 ? 1 : 0);
  if (queued_[id] != 0) RegisterWaiting(id);
  return id;
}

void OnlineScheduler::RegisterWaiting(UserId id) {
  const User& user = users_[id];
  const EligibilitySet& elig = *user.elig;
  const auto entry_user = static_cast<std::uint32_t>(id);
  const std::uint32_t shape = user.demand_id << 1;
  elig.classes.ForEachSet([&](std::size_t c) {
    waiting_[c].push_back(
        WaitEntry{entry_user, shape | (elig.PartlyCovers(c) ? 1u : 0u)});
  });
}

void OnlineScheduler::AddPending(UserId user, long count) {
  TSF_CHECK_LT(user, users_.size());
  TSF_CHECK_GE(count, 0);
  User& u = users_[user];
  TSF_CHECK(!u.retired);
  const bool was_drained = u.pending <= 0;
  u.pending += count;
  total_pending_ += count;
  // Drained users fall out of the wait lists (see ServeMachine); put this
  // one back now that it has work again. A not-yet-compacted stale entry
  // just yields a duplicate, which the serve loop tolerates: the heap
  // orders by (key, id), so duplicates pop as stale and re-rank harmlessly.
  if (was_drained && u.pending > 0) {
    queued_[user] = 1;
    RegisterWaiting(user);
  }
}

void OnlineScheduler::OnTaskFinish(UserId user, MachineId machine) {
  User& u = users_[user];
  TSF_CHECK_GT(u.running, 0);
  TSF_CHECK(!down_[machine]) << "finish on crashed machine " << machine;
  TSF_CHECK(u.elig->machines.Test(machine));
  --u.running;
  UpdateKey(u);
  free_[machine] += Demand(u);
  if (bound_of_[machine] != kNoBound)
    bound_[bound_of_[machine]].MaxWith(free_[machine]);
}

void OnlineScheduler::Retire(UserId user) {
  TSF_CHECK_LT(user, users_.size());
  users_[user].retired = true;
  queued_[user] = 0;
}

void OnlineScheduler::CrashMachine(MachineId machine) {
  TSF_CHECK_LT(machine, free_.size());
  TSF_CHECK(!down_[machine]) << "machine " << machine << " already down";
  free_[machine] = ResourceVector(capacity_[machine].dimension());
  down_[machine] = true;
  // The class bound stays stale-high: a zeroed member only lowers the true
  // max, and the bound is allowed to overestimate.
}

void OnlineScheduler::RestoreMachine(MachineId machine) {
  TSF_CHECK_LT(machine, free_.size());
  TSF_CHECK(down_[machine]) << "machine " << machine << " is not down";
  free_[machine] = capacity_[machine];
  down_[machine] = false;
  if (bound_of_[machine] != kNoBound)
    bound_[bound_of_[machine]].MaxWith(free_[machine]);
}

double OnlineScheduler::Key(UserId user) const { return users_[user].key; }

bool OnlineScheduler::TryPlace(UserId user, MachineId machine) {
  User& u = users_[user];
  if (u.pending <= 0) return false;
  const ResourceVector& demand = Demand(u);
  if (!free_[machine].Fits(demand)) return false;
  free_[machine] -= demand;
  if (--u.pending == 0) queued_[user] = 0;
  --total_pending_;
  ++u.running;
  UpdateKey(u);
  return true;
}

void OnlineScheduler::PlaceUserGreedy(
    UserId user, const std::function<void(MachineId)>& on_place) {
  User& u = users_[user];
  if (u.pending <= 0) return;
  ++scan_epoch_;
  if (scan_epoch_ == 0) {  // epoch counter wrapped: hard-reset the memo
    std::fill(scan_epoch_of_.begin(), scan_epoch_of_.end(), 0u);
    scan_epoch_ = 1;
  }
  // First-fit over eligible machines in index order; stop early once the
  // queue drains. A bounded class is pruned whole when its bound proves no
  // member can fit this demand.
  u.elig->machines.ForEachSetUntil([&](std::size_t m) {
    const std::uint32_t b = bound_of_[m];
    if (b == kNoBound) {
      while (TryPlace(user, m)) on_place(m);
      return u.pending <= 0;
    }
    if (scan_epoch_of_[b] != scan_epoch_) {
      scan_epoch_of_[b] = scan_epoch_;
      scan_fit_[b] =
          static_cast<signed char>(bound_[b].Fits(Demand(u)) ? 1 : 0);
      scan_visited_[b] = 0;
    }
    if (scan_fit_[b] == 0) {
      TSF_COUNTER_ADD("scheduler.greedy.class_skips", 1);
      return false;
    }
    while (TryPlace(user, m)) on_place(m);
    // Only this user places during the scan (capacity is monotone
    // non-increasing), so the running max of post-visit free vectors upper
    // bounds every member visited so far.
    if (scan_visited_[b] == 0) {
      scan_observed_[b] = free_[m];
    } else {
      scan_observed_[b].MaxWith(free_[m]);
    }
    if (++scan_visited_[b] == bound_members_[b]) {
      // Visited the whole class: the observed max is its true bound right
      // now. Commit it — this is the only place the bound tightens (the
      // event-driven updates only ever grow it).
      TSF_DCHECK(u.elig->ClassFull(classes_->class_of(m)));
      bound_[b] = scan_observed_[b];
      TSF_COUNTER_ADD("scheduler.greedy.ub_tightened", 1);
    }
    return u.pending <= 0;
  });
}

std::size_t OnlineScheduler::AdvanceCursor(Cursor& cursor) {
  const User& u = users_[cursor.user];
  const DynamicBitset& elig = u.elig->machines;
  std::size_t m = elig.FindNextSet(cursor.next);
  while (m < elig.size()) {
    const std::uint32_t b = bound_of_[m];
    bool may_fit = true;
    if (b != kNoBound) {
      signed char& fit = cursor.bound_fit[b];
      if (fit < 0)
        fit = static_cast<signed char>(bound_[b].Fits(Demand(u)) ? 1 : 0);
      may_fit = fit == 1;
    }
    if (may_fit && free_[m].Fits(Demand(u))) break;
    m = elig.FindNextSet(m + 1);
  }
  cursor.next = m;
  return m < elig.size() ? m : SIZE_MAX;
}

void OnlineScheduler::PlaceUsersInterleaved(
    const std::vector<UserId>& users,
    const std::function<void(UserId, MachineId)>& on_place) {
  TSF_TRACE_SCOPE("scheduler", "PlaceUsersInterleaved");
  if (users.size() == 1) {
    const UserId user = users.front();
    PlaceUserGreedy(user, [&](MachineId m) { on_place(user, m); });
    return;
  }

  // Per-user resumable scan over its eligible machines. Capacity only
  // shrinks during this phase, so a machine that failed the fit test once
  // never needs revisiting for the same user (cursors are monotone).
  std::vector<Cursor> cursors;
  cursors.reserve(users.size());
  for (const UserId user : users) {
    TSF_CHECK_LT(user, users_.size());
    Cursor cursor;
    cursor.user = user;
    cursor.bound_fit.assign(bound_.size(), -1);
    cursors.push_back(std::move(cursor));
  }
  // Ordered by user id, the heap's tie-break is cursor index == the
  // reference's "lowest user id wins" rule.
  std::stable_sort(cursors.begin(), cursors.end(),
                   [](const Cursor& a, const Cursor& b) { return a.user < b.user; });

  heap_.Clear();
  heap_.Reserve(cursors.size());
  for (std::size_t c = 0; c < cursors.size(); ++c)
    if (users_[cursors[c].user].pending > 0)
      heap_.PushUnordered(users_[cursors[c].user].key, c);
  heap_.Heapify();

  while (!heap_.Empty()) {
    const RankEntry entry = heap_.PopMin();
    TSF_COUNTER_ADD("scheduler.interleave.heap_pops", 1);
    Cursor& cursor = cursors[entry.id];
    User& u = users_[cursor.user];
    if (u.pending <= 0) continue;
    if (entry.key != u.key) {  // stale entry: re-rank at the current key
      TSF_COUNTER_ADD("scheduler.interleave.stale_entries", 1);
      heap_.Push(u.key, entry.id);
      continue;
    }
    const std::size_t machine = AdvanceCursor(cursor);
    if (machine == SIZE_MAX) continue;  // permanently out of this phase
    TSF_CHECK(TryPlace(cursor.user, machine));
    TSF_COUNTER_ADD("scheduler.interleave.placements", 1);
    on_place(cursor.user, machine);
    if (u.pending > 0) heap_.Push(u.key, entry.id);
  }
}

bool OnlineScheduler::ShapeFits(std::uint32_t d, MachineId machine) {
  std::uint32_t& verdict = verdict_[d];
  if ((verdict >> 1) != serve_epoch_) {
    const bool fits = free_[machine].Fits(demands_[d]);
    if (fits) live_shapes_.push_back(d);
    verdict = serve_epoch_ << 1 | (fits ? 1u : 0u);
  }
  return (verdict & 1) != 0;
}

void OnlineScheduler::ServeMachine(
    MachineId machine, const std::function<void(UserId, MachineId)>& on_place) {
  std::vector<WaitEntry>& waiting = waiting_[classes_->class_of(machine)];
  if (waiting.empty()) return;  // nobody waiting on this class
  TSF_TRACE_SCOPE("scheduler", "ServeMachine");
  TSF_COUNTER_ADD("scheduler.serve_machine.calls", 1);
  TSF_HISTOGRAM_RECORD("scheduler.serve_machine.wait_list", waiting.size());
  if (++serve_epoch_ == UINT32_MAX >> 1) {  // epoch would overflow its bits
    std::fill(verdict_.begin(), verdict_.end(), 0u);
    serve_epoch_ = 1;
  }
  live_shapes_.clear();

  // Build the min-heap and compact the wait list in one pass. Retired or
  // drained users drop out (AddPending re-registers a user that gets new
  // tasks). Users of one demand shape share one fit verdict, and only an
  // entry whose shape fits reads its user, so on a full machine the scan
  // costs two table lookups per entry. A user eligible on part of the
  // class enters the heap only if it is eligible on this machine.
  heap_.Clear();
  std::size_t keep = 0;
  for (const WaitEntry entry : waiting) {
    if (queued_[entry.user] == 0) continue;
    waiting[keep++] = entry;
    if (!ShapeFits(entry.shape >> 1, machine)) continue;
    const User& u = users_[entry.user];
    if ((entry.shape & 1) != 0 && !u.elig->machines.Test(machine)) continue;
    heap_.PushUnordered(u.key, entry.user);
  }
  TSF_COUNTER_ADD("scheduler.serve_machine.wait_list_compacted",
                  static_cast<std::int64_t>(waiting.size() - keep));
  waiting.resize(keep);
  heap_.Heapify();

  // Serve ascending (key, id). Capacity only shrinks and keys only grow
  // within the phase, so a shape that stops fitting is out for good, and
  // the heap invariant is maintained by re-pushing the served user at its
  // raised key: O(log n) per placement instead of a rescan. Once no
  // admitted shape fits, every remaining pop would fail, so the serve ends.
  while (!heap_.Empty()) {
    const RankEntry entry = heap_.PopMin();
    TSF_COUNTER_ADD("scheduler.serve_machine.heap_pops", 1);
    const UserId id = entry.id;
    User& u = users_[id];
    if (u.pending <= 0 || (verdict_[u.demand_id] & 1) == 0) continue;
    if (entry.key != u.key) {  // stale entry: re-rank at the current key
      TSF_COUNTER_ADD("scheduler.serve_machine.stale_entries", 1);
      heap_.Push(u.key, id);
      continue;
    }
    TSF_CHECK(TryPlace(id, machine));
    TSF_COUNTER_ADD("scheduler.serve_machine.placements", 1);
    on_place(id, machine);
    if (u.pending > 0) heap_.Push(u.key, id);
    std::erase_if(live_shapes_, [&](std::uint32_t d) {
      if (free_[machine].Fits(demands_[d])) return false;
      verdict_[d] &= ~1u;
      return true;
    });
    if (live_shapes_.empty()) break;
  }
}

}  // namespace tsf
