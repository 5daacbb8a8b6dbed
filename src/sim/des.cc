#include "sim/des.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <type_traits>

#include "core/eligibility.h"
#include "core/online/reference_scheduler.h"
#include "core/online/scheduler.h"
#include "telemetry/telemetry.h"
#include "util/check.h"

namespace tsf {

std::vector<double> SimResult::JobQueueingDelays() const {
  std::vector<double> delays;
  delays.reserve(jobs.size());
  for (const JobRecord& job : jobs) delays.push_back(job.QueueingDelay());
  return delays;
}

std::vector<double> SimResult::JobCompletionTimes() const {
  std::vector<double> times;
  times.reserve(jobs.size());
  for (const JobRecord& job : jobs) times.push_back(job.CompletionTime());
  return times;
}

std::vector<double> SimResult::TaskQueueingDelays() const {
  std::vector<double> delays;
  delays.reserve(tasks.size());
  for (const TaskRecord& task : tasks) delays.push_back(task.QueueingDelay());
  return delays;
}

namespace {

// A task-finish event's payload; its time is the event heap's key.
// Arrivals never enter the queue (the job list is already sorted by
// arrival time and is merged in as a second stream, as are injected
// faults), and finishes sharing a timestamp are applied as one batch whose
// internal order is immaterial — capacity frees commute and the freed
// machine set is sorted before serving — so no sequence tie-break or event
// kind is needed. The narrow fields bound the workload at 2^32
// jobs/machines/tasks, checked at simulation entry. `attempt` is the task
// slot's placement generation: a crash or failure bumps the slot's
// generation, voiding the queued finish event (lazy cancellation — the
// event pops and is skipped).
struct FinishEvent {
  std::uint32_t job = 0;
  std::uint32_t machine = 0;
  std::uint32_t task_slot = 0;  // index into result.tasks
  std::uint32_t attempt = 0;
};
static_assert(sizeof(FinishEvent) == 16,
              "a queued finish costs its 8-byte time and this payload");

// 4-ary min-heap on time. Heap churn dominates the event loop (one push
// and one pop per task), and against std::priority_queue's binary heap
// this halves the sift depth. The times sit in their own array, so a
// sift compares contiguous 8-byte keys (a node's four children span 32
// bytes) and moves the payload in lockstep; sifting moves a hole instead
// of swapping.
class EventQueue {
 public:
  void Reserve(std::size_t n) {
    times_.reserve(n);
    events_.reserve(n);
  }
  bool Empty() const { return times_.empty(); }
  std::size_t Size() const { return times_.size(); }
  double TopTime() const { return times_.front(); }
  const FinishEvent& Top() const { return events_.front(); }

  void Push(double time, const FinishEvent& e) {
    std::size_t i = times_.size();
    times_.push_back(time);
    events_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (time >= times_[parent]) break;
      times_[i] = times_[parent];
      events_[i] = events_[parent];
      i = parent;
    }
    times_[i] = time;
    events_[i] = e;
  }

  void Pop() {
    const double time = times_.back();
    const FinishEvent moved = events_.back();
    times_.pop_back();
    events_.pop_back();
    const std::size_t n = times_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < last; ++c)
        if (times_[c] < times_[best]) best = c;
      if (times_[best] >= time) break;
      times_[i] = times_[best];
      events_[i] = events_[best];
      i = best;
    }
    times_[i] = time;
    events_[i] = moved;
  }

 private:
  std::vector<double> times_;
  std::vector<FinishEvent> events_;
};

// Machines grouped by identical normalized capacity vector. The Google
// config mix has only a handful of distinct shapes, so the per-arrival
// monopoly-count sweep (h_i over all machines, g_i over the eligible set)
// collapses from O(machines) DivisibleTaskCount calls to O(distinct
// configs) calls, plus one AND-popcount per config for each distinct
// eligibility set.
struct CapacityGroup {
  ResourceVector capacity;  // normalized, shared by all members
  DynamicBitset members;    // over the cluster's machines
  double count = 0.0;       // members.Count(), as the multiplier
};

std::vector<CapacityGroup> GroupByCapacity(
    const std::vector<ResourceVector>& capacity) {
  std::vector<CapacityGroup> groups;
  for (std::size_t m = 0; m < capacity.size(); ++m) {
    CapacityGroup* group = nullptr;
    for (CapacityGroup& g : groups)
      if (g.capacity == capacity[m]) {
        group = &g;
        break;
      }
    if (group == nullptr) {
      groups.push_back(CapacityGroup{capacity[m],
                                     DynamicBitset(capacity.size()), 0.0});
      group = &groups.back();
    }
    group->members.Set(m);
    group->count += 1.0;
  }
  return groups;
}

template <class Scheduler>
SimResult SimulateWith(const Workload& workload, const OnlinePolicy& policy,
                       const SimOptions& options) {
  TSF_TRACE_SCOPE("sim", "Simulate");
  const Cluster& cluster = workload.cluster;
  TSF_CHECK_GT(cluster.num_machines(), 0u);
  for (std::size_t j = 1; j < workload.jobs.size(); ++j)
    TSF_CHECK_LE(workload.jobs[j - 1].spec.arrival_time,
                 workload.jobs[j].spec.arrival_time)
        << "jobs must be sorted by arrival";

  SimResult result;
  result.policy = policy.name;
  result.jobs.resize(workload.jobs.size());
  // Tasks are written straight into their (job, index) slot as they are
  // scheduled, so the result needs no final sort to align across policies.
  std::size_t total_tasks = 0;
  std::vector<std::size_t> job_task_offset(workload.jobs.size(), 0);
  for (std::size_t j = 0; j < workload.jobs.size(); ++j) {
    const SimJob& job = workload.jobs[j];
    TSF_CHECK_EQ(static_cast<std::size_t>(job.spec.num_tasks),
                 job.task_runtimes.size());
    job_task_offset[j] = total_tasks;
    total_tasks += job.task_runtimes.size();
  }
  result.tasks.resize(total_tasks);

  // Chaos hooks: faults merge into the batch loop as a third time-sorted
  // stream; the optional stream recorder sees every state transition.
  const std::vector<SimFault>& faults = options.faults;
  for (std::size_t f = 1; f < faults.size(); ++f)
    TSF_CHECK_LE(faults[f - 1].time, faults[f].time)
        << "faults must be sorted by time";
  const bool chaos = !faults.empty();
  // Fault bookkeeping, sized only when faults are present: which machines
  // are up, which task slots run on each machine (so a crash can kill
  // them), the per-slot attempt generation (lazy finish-event
  // cancellation), and per-job requeued slots awaiting re-placement (so a
  // retried task keeps its identity and its pre-sampled runtime).
  std::vector<bool> machine_up(cluster.num_machines(), true);
  std::vector<std::vector<std::uint32_t>> running_on(
      chaos ? cluster.num_machines() : 0);
  std::vector<std::uint32_t> attempt(chaos ? total_tasks : 0, 0);
  std::vector<std::vector<std::uint32_t>> requeued(
      chaos ? workload.jobs.size() : 0);
  auto emit = [&](SimStreamEvent::Kind kind, double time, std::size_t job,
                  std::size_t task, std::size_t machine,
                  std::uint32_t generation) {
    if (options.stream == nullptr) return;
    options.stream->push_back(
        SimStreamEvent{time, kind, static_cast<std::uint32_t>(job),
                       static_cast<std::uint32_t>(task),
                       static_cast<std::uint32_t>(machine), generation});
  };

  // Jobs repeat constraints (the paper fleet's hour has about one distinct
  // constraint per five jobs), so each distinct constraint is compiled once
  // and its set shared by every user that carries it.
  const MachineClassIndex class_index(cluster);
  EligibilityPool elig_pool(cluster, class_index);

  std::vector<ResourceVector> capacity;
  capacity.reserve(cluster.num_machines());
  for (MachineId m = 0; m < cluster.num_machines(); ++m)
    capacity.push_back(cluster.NormalizedCapacity(m));
  const std::vector<CapacityGroup> config_groups = GroupByCapacity(capacity);
  // Eligible machines per capacity group, counted once per distinct
  // eligibility set: row `serial` of a sets × groups table.
  std::vector<double> group_eligible;
  Scheduler scheduler = [&] {
    if constexpr (std::is_same_v<Scheduler, OnlineScheduler>) {
      return Scheduler(std::move(capacity), policy, class_index);
    } else {
      return Scheduler(std::move(capacity), policy);
    }
  }();

  // Per-job simulation state.
  struct JobState {
    UserId user = 0;          // scheduler id, assigned at arrival
    long next_task = 0;       // next runtime index to schedule
    long finished = 0;
    bool arrived = false;
    // Fairness-sampler inputs, fixed at arrival.
    double dominant_demand = 0.0;  // max normalized demand component
    double inv_hw = 0.0;           // 1 / (h_i * w_i)
  };
  std::vector<JobState> state(workload.jobs.size());

  // One finish event per task is ever queued; arrivals stream from the
  // (sorted) job list instead of transiting the heap.
  TSF_CHECK_LT(workload.jobs.size() + total_tasks, std::size_t{UINT32_MAX});
  EventQueue events;
  events.Reserve(total_tasks);
  for (std::size_t j = 0; j < workload.jobs.size(); ++j) {
    result.jobs[j].arrival = workload.jobs[j].spec.arrival_time;
    result.jobs[j].num_tasks = workload.jobs[j].spec.num_tasks;
  }

  // The batch clock; declared ahead of the callbacks below so they can
  // capture it by reference and be constructed once instead of per event.
  double now = 0.0;
  std::size_t tasks_placed = 0;

  // Places one task of job j on machine m at `now`: records metrics and
  // enqueues its completion. The scheduler has already debited resources.
  auto record_placement = [&](std::size_t j, MachineId m) {
    JobState& js = state[j];
    const SimJob& job = workload.jobs[j];
    // Requeued slots (crash/failure retries) are re-placed before fresh
    // ones so a retried task keeps its identity and pre-sampled runtime.
    std::size_t slot;
    if (chaos && !requeued[j].empty()) {
      slot = requeued[j].back();
      requeued[j].pop_back();
    } else {
      TSF_CHECK_LT(static_cast<std::size_t>(js.next_task),
                   job.task_runtimes.size());
      slot = job_task_offset[j] + static_cast<std::size_t>(js.next_task++);
    }
    const long index = static_cast<long>(slot - job_task_offset[j]);
    TaskRecord& task = result.tasks[slot];
    task.job = j;
    task.index = index;
    task.submit = job.spec.arrival_time;
    task.schedule = now;
    task.finish = now + job.task_runtimes[static_cast<std::size_t>(index)];
    task.machine = m;
    ++task.attempts;
    ++tasks_placed;
    result.jobs[j].first_schedule = std::min(result.jobs[j].first_schedule, now);
    const std::uint32_t generation = chaos ? attempt[slot] : 0;
    if (chaos) running_on[m].push_back(static_cast<std::uint32_t>(slot));
    emit(SimStreamEvent::Kind::kPlace, now, j, slot, m, generation);
    events.Push(task.finish,
                FinishEvent{static_cast<std::uint32_t>(j),
                            static_cast<std::uint32_t>(m),
                            static_cast<std::uint32_t>(slot), generation});
  };

  // Scheduler user id → job index (users are added in arrival order).
  std::vector<std::size_t> user_to_job;
  user_to_job.reserve(workload.jobs.size());

  // Constructed once; `now` is captured by reference (see above).
  const std::function<void(UserId, MachineId)> on_place =
      [&](UserId user, MachineId machine) {
        record_placement(user_to_job[user], machine);
      };

  // Events sharing a timestamp are applied as a batch before any
  // scheduling: otherwise jobs submitted "at the same time" would be
  // allocated one after another and the first would monopolize the idle
  // cluster for a whole (non-preemptible) task wave. Arrivals merge in
  // from the sorted job list; batch-mates register (in arrival order)
  // before any finish is applied, matching the former single-queue order.
  // Fairness timeline sampler (see SimOptions): walks every sample instant
  // in (previous now, now] before the batch at `now` applies, so each sample
  // reflects the cluster state that held over that interval.
  const double sample_interval = options.fairness_sample_interval;
  double next_sample = 0.0;
  auto take_sample = [&](double t) {
    for (const std::size_t j : user_to_job) {
      const JobState& js = state[j];
      const long running = js.next_task - js.finished;
      const long queued =
          workload.jobs[j].spec.num_tasks - js.next_task;
      if (running <= 0 && queued <= 0) continue;  // job already done
      telemetry::FairnessSample sample;
      sample.time = t;
      sample.user = static_cast<std::uint32_t>(js.user);
      sample.running = static_cast<std::uint32_t>(running);
      sample.pending = static_cast<std::uint32_t>(queued);
      sample.dominant_share = static_cast<double>(running) * js.dominant_demand;
      sample.task_share = static_cast<double>(running) * js.inv_hw;
      result.fairness_timeline.push_back(sample);
    }
  };

  std::vector<MachineId> freed_machines;
  std::vector<UserId> arrived_users;
  std::size_t next_arrival = 0;
  std::size_t next_fault = 0;
  while (next_arrival < workload.jobs.size() || !events.Empty() ||
         next_fault < faults.size()) {
    now = std::numeric_limits<double>::infinity();
    if (next_arrival < workload.jobs.size())
      now = workload.jobs[next_arrival].spec.arrival_time;
    if (!events.Empty()) now = std::min(now, events.TopTime());
    if (next_fault < faults.size())
      now = std::min(now, faults[next_fault].time);
    if (sample_interval > 0.0)
      while (next_sample <= now) {
        take_sample(next_sample);
        next_sample += sample_interval;
      }
    TSF_COUNTER_ADD("des.batches", 1);
    TSF_HISTOGRAM_RECORD("des.event_heap_depth", events.Size());
    TSF_TRACE_COUNTER("des", "event_heap_depth", events.Size());
    freed_machines.clear();
    arrived_users.clear();

    while (next_arrival < workload.jobs.size() &&
           workload.jobs[next_arrival].spec.arrival_time == now) {
      const std::size_t j = next_arrival++;
      const SimJob& job = workload.jobs[j];
      OnlineUserSpec spec;
      spec.demand = cluster.NormalizedDemand(job.spec.demand);
      spec.weight = job.spec.weight;
      spec.h = 0.0;
      spec.g = 0.0;
      const std::size_t compiled = elig_pool.size();
      spec.eligible_set = elig_pool.Intern(job.spec.constraint);
      const EligibilitySet& elig = *spec.eligible_set;
      if (elig_pool.size() > compiled) {
        TSF_COUNTER_ADD("des.eligibility_memo.misses", 1);
        TSF_CHECK_EQ(elig.serial * config_groups.size(), group_eligible.size());
        for (const CapacityGroup& group : config_groups)
          group_eligible.push_back(
              static_cast<double>(elig.machines.CountAnd(group.members)));
      } else {
        TSF_COUNTER_ADD("des.eligibility_memo.hits", 1);
      }
      TSF_CHECK(elig.machines.Any())
          << "job " << job.spec.name << " has no eligible machine";
      const bool fits_somewhere =
          elig.machines.ForEachSetUntil([&](std::size_t m) {
            return cluster.machine(m).capacity.Fits(job.spec.demand);
          });
      TSF_CHECK(fits_somewhere)
          << "job " << job.spec.name
          << ": no eligible machine can hold one task — it would never finish";
      const double* eligible_members =
          &group_eligible[elig.serial * config_groups.size()];
      for (std::size_t g = 0; g < config_groups.size(); ++g) {
        const double tasks =
            config_groups[g].capacity.DivisibleTaskCount(spec.demand);
        spec.h += config_groups[g].count * tasks;
        if (eligible_members[g] > 0.0) spec.g += eligible_members[g] * tasks;
      }
      spec.pending = job.spec.num_tasks;
      JobState& js = state[j];
      js.dominant_demand = spec.demand.MaxComponent();
      js.inv_hw = 1.0 / (spec.h * job.spec.weight);
      js.user = scheduler.AddUser(std::move(spec));
      js.arrived = true;
      user_to_job.push_back(j);
      TSF_CHECK_EQ(user_to_job.size(), js.user + 1);
      arrived_users.push_back(js.user);
      emit(SimStreamEvent::Kind::kArrive, now, j, 0, 0, 0);
      TSF_COUNTER_ADD("des.arrivals", 1);
    }

    while (!events.Empty() && events.TopTime() == now) {
      // Task completion: free resources now, schedule after the batch.
      const FinishEvent event = events.Top();
      events.Pop();
      // Lazy cancellation: a crash or failure bumped the slot's generation,
      // so this finish belongs to a placement that no longer exists.
      if (chaos && event.attempt != attempt[event.task_slot]) {
        TSF_COUNTER_ADD("chaos.des.stale_finish_events", 1);
        continue;
      }
      const std::size_t j = event.job;
      JobState& js = state[j];
      scheduler.OnTaskFinish(js.user, event.machine);
      ++js.finished;
      result.makespan = std::max(result.makespan, now);
      if (chaos) {
        std::vector<std::uint32_t>& on = running_on[event.machine];
        const auto it = std::find(on.begin(), on.end(), event.task_slot);
        TSF_CHECK(it != on.end());
        *it = on.back();
        on.pop_back();
      }
      emit(SimStreamEvent::Kind::kFinish, now, j, event.task_slot,
           event.machine, event.attempt);
      if (js.finished == workload.jobs[j].spec.num_tasks) {
        result.jobs[j].completion = now;
        scheduler.Retire(js.user);
      }
      freed_machines.push_back(event.machine);
      TSF_COUNTER_ADD("des.task_finishes", 1);
    }

    // Fault batch: applied after finishes (a task completing at the crash
    // instant counts as finished, matching "crash strikes the open
    // interval") and before any scheduling at this instant.
    bool requeued_any = false;
    while (next_fault < faults.size() && faults[next_fault].time == now) {
      const SimFault& fault = faults[next_fault++];
      const MachineId m = fault.machine;
      TSF_CHECK_LT(m, cluster.num_machines());
      // Kills the slot's current placement and returns it to the pending
      // pool; the finish event already queued for it dies by generation.
      auto requeue_task = [&](std::uint32_t slot) {
        ++attempt[slot];
        const std::size_t j = result.tasks[slot].job;
        scheduler.OnTaskFinish(state[j].user, m);
        scheduler.AddPending(state[j].user, 1);
        requeued[j].push_back(slot);
        requeued_any = true;
      };
      switch (fault.kind) {
        case SimFault::Kind::kMachineCrash: {
          TSF_CHECK(machine_up[m]) << "crash of already-down machine " << m;
          // Kill order is immaterial for state (frees commute) but the
          // stream records most-recent-first for determinism.
          std::vector<std::uint32_t>& on = running_on[m];
          for (std::size_t r = on.size(); r-- > 0;) {
            emit(SimStreamEvent::Kind::kKill, now, result.tasks[on[r]].job,
                 on[r], m, attempt[on[r]]);
            requeue_task(on[r]);
          }
          on.clear();
          scheduler.CrashMachine(m);
          machine_up[m] = false;
          emit(SimStreamEvent::Kind::kCrash, now, 0, 0, m, 0);
          TSF_COUNTER_ADD("chaos.des.machine_crashes", 1);
          break;
        }
        case SimFault::Kind::kMachineRestart: {
          TSF_CHECK(!machine_up[m]) << "restart of up machine " << m;
          scheduler.RestoreMachine(m);
          machine_up[m] = true;
          emit(SimStreamEvent::Kind::kRestart, now, 0, 0, m, 0);
          freed_machines.push_back(m);
          TSF_COUNTER_ADD("chaos.des.machine_restarts", 1);
          break;
        }
        case SimFault::Kind::kTaskFailure: {
          // Fails the most recently placed task on the machine; a no-op on
          // a down or idle machine (the plan generator does not coordinate
          // failure targets with the schedule).
          if (!machine_up[m] || running_on[m].empty()) {
            TSF_COUNTER_ADD("chaos.des.task_failures_skipped", 1);
            break;
          }
          const std::uint32_t slot = running_on[m].back();
          running_on[m].pop_back();
          emit(SimStreamEvent::Kind::kFail, now, result.tasks[slot].job, slot,
               m, attempt[slot]);
          requeue_task(slot);
          freed_machines.push_back(m);
          TSF_COUNTER_ADD("chaos.des.task_failures", 1);
          break;
        }
      }
    }

    // Scheduling phase. Freed machines are re-offered to everyone eligible
    // (arrivals included — they are registered by now); remaining idle
    // capacity is then handed to the arrival batch in key order. Other
    // pending users need no consideration: they could not place before
    // this instant and no other machine gained capacity — unless a fault
    // requeued tasks, which breaks that work-conservation argument (the
    // requeued user may fit on machines that were idle all along), so a
    // requeue re-offers every up machine in index order.
#if defined(TSF_TELEMETRY)
    // Per-round serve latency (host wall time of one scheduling phase).
    // Informational only — wall time is machine-dependent, so nothing
    // deterministic is derived from it. The clock reads are skipped
    // entirely unless telemetry is enabled.
    const bool tm_round =
        telemetry::Enabled() &&
        (scheduler.HasPendingUsers() || !arrived_users.empty());
    const auto tm_round_start = tm_round
                                    ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point{};
#endif
    if (scheduler.HasPendingUsers()) {
      if (requeued_any) {
        for (MachineId m = 0; m < cluster.num_machines(); ++m)
          if (machine_up[m]) scheduler.ServeMachine(m, on_place);
      } else {
        std::sort(freed_machines.begin(), freed_machines.end());
        freed_machines.erase(
            std::unique(freed_machines.begin(), freed_machines.end()),
            freed_machines.end());
        for (const MachineId m : freed_machines)
          if (machine_up[m]) scheduler.ServeMachine(m, on_place);
      }
    }
    if (!arrived_users.empty())
      scheduler.PlaceUsersInterleaved(arrived_users, on_place);
#if defined(TSF_TELEMETRY)
    if (tm_round) {
      const std::chrono::duration<double, std::micro> tm_round_us =
          std::chrono::steady_clock::now() - tm_round_start;
      TSF_HISTOGRAM_RECORD("des.serve_round_us", tm_round_us.count());
    }
#endif
  }

  // Retries make placements exceed the task count; the per-job finished
  // check below still guarantees completion either way.
  if (!chaos) TSF_CHECK_EQ(tasks_placed, total_tasks);
  for (std::size_t j = 0; j < workload.jobs.size(); ++j)
    TSF_CHECK_EQ(state[j].finished, workload.jobs[j].spec.num_tasks)
        << "job " << j << " did not finish";
  return result;
}

}  // namespace

SimResult Simulate(const Workload& workload, const OnlinePolicy& policy,
                   SimCore core, const SimOptions& options) {
  return core == SimCore::kReference
             ? SimulateWith<ReferenceScheduler>(workload, policy, options)
             : SimulateWith<OnlineScheduler>(workload, policy, options);
}

}  // namespace tsf
